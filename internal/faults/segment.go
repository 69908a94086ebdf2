package faults

import (
	"math"
	"sort"

	"spacesim/internal/mp"
	"spacesim/internal/netsim"
)

// A run under a schedule is a chain of segments, one per restart, each with
// its clocks starting at a global time offset. The functions below derive a
// segment's pieces from the schedule, the offset and the set of fault IDs
// that have fired (the caller's, keyed by Fault.ID): crashes and disk
// corruptions fire once, while link degradation and port flaps are
// intervals that hold whatever the restarts do — a renegotiated NIC is
// still slow after the job restarts.

// Manual builds a schedule from an explicit fault list, assigning IDs in
// order — the deterministic hand-built path the restart tests use.
func Manual(ranks int, horizon float64, fs ...Fault) Schedule {
	s := Schedule{Ranks: ranks, Horizon: horizon}
	for _, f := range fs {
		f.ID = len(s.Faults)
		if f.End < f.Start {
			f.End = f.Start
		}
		s.Faults = append(s.Faults, f)
	}
	sort.SliceStable(s.Faults, func(i, j int) bool { return s.Faults[i].Start < s.Faults[j].Start })
	return s
}

// Retire adds to fired every crash and disk corruption striking at or
// before t: after a recovery at global time t the dead node was rebooted
// and the bad stripe rewritten.
func (s Schedule) Retire(fired map[int]bool, t float64) {
	for _, f := range s.Faults {
		if f.Start <= t && (f.Kind == RankCrash || f.Kind == DiskCorrupt) {
			fired[f.ID] = true
		}
	}
}

// CrashPlan builds the crash plan of a segment whose clocks start at global
// time offset: every crash not in fired strikes at its global time minus
// the offset (one already in the past strikes at once — a node that was
// never repaired dies again).
func (s Schedule) CrashPlan(fired map[int]bool, offset float64) *mp.FaultPlan {
	plan := mp.NewFaultPlan(s.Ranks)
	for _, f := range s.Faults {
		if f.Kind == RankCrash && !fired[f.ID] {
			plan.Crash(f.Rank, math.Max(0, f.Start-offset), f.Cause)
		}
	}
	return plan
}

// Health builds the fabric health of a segment starting at global time
// offset, or nil when no link or port fault overlaps it.
func (s Schedule) Health(offset float64) *netsim.Health {
	h := netsim.NewHealth()
	for _, f := range s.Faults {
		switch f.Kind {
		case LinkDegrade:
			h.DegradeNIC(f.Rank, f.Start, f.End, f.Severity)
		case PortFlap:
			h.FlapPort(f.Rank, f.Start, f.End, f.Severity)
		}
	}
	if h = h.Shift(offset); h.Empty() {
		return nil
	}
	return h
}

// DiskFaults returns, per rank, the first disk corruption not in fired
// that strikes within the horizon (its ID, or -1), and when it strikes on
// the clock of a segment starting at global time offset: that rank's drive
// corrupts the first checkpoint stripe whose write starts at or after then.
// A stripe written before the drive failed is intact.
func (s Schedule) DiskFaults(fired map[int]bool, offset float64) (ids []int, at []float64) {
	ids, at = make([]int, s.Ranks), make([]float64, s.Ranks)
	for rank := range ids {
		ids[rank] = -1
	}
	for _, f := range s.Faults {
		if f.Kind == DiskCorrupt && f.Start <= s.Horizon && !fired[f.ID] && ids[f.Rank] < 0 {
			ids[f.Rank], at[f.Rank] = f.ID, f.Start-offset
		}
	}
	return ids, at
}

// DegradedSeconds sums degraded link-seconds and flapping port-seconds of
// the schedule over [0, horizon) — the reliability exposure metric reported
// by the fault summary.
func (s Schedule) DegradedSeconds() (degraded, flapping float64) {
	return s.Health(0).DegradedSeconds(s.Horizon)
}
