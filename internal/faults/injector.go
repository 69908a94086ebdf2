package faults

import (
	"math"
	"sort"

	"spacesim/internal/mp"
	"spacesim/internal/netsim"
)

// Injector is the per-job fault state the runtime consults: the immutable
// schedule plus which faults have already fired or been repaired. The
// checkpoint–restart driver owns one Injector across all restart segments;
// each segment gets a fresh crash plan and network health re-based onto the
// segment's own clock origin.
//
// The Injector is not goroutine-safe: it is driven from the restart loop
// between segments, never from inside rank goroutines (ranks consume the
// derived FaultPlan/Health, which are read-only during a run).
type Injector struct {
	Sched    Schedule
	disarmed map[int]bool
}

// NewInjector wraps a drawn schedule with fresh (all-armed) state.
func NewInjector(s Schedule) *Injector {
	return &Injector{Sched: s, disarmed: map[int]bool{}}
}

// Manual builds an injector from an explicit fault list, assigning IDs in
// order — the deterministic hand-built path the restart tests use.
func Manual(ranks int, horizon float64, fs ...Fault) *Injector {
	s := Schedule{Ranks: ranks, Horizon: horizon}
	for _, f := range fs {
		f.ID = len(s.Faults)
		if f.End < f.Start {
			f.End = f.Start
		}
		s.Faults = append(s.Faults, f)
	}
	sort.SliceStable(s.Faults, func(i, j int) bool { return s.Faults[i].Start < s.Faults[j].Start })
	return NewInjector(s)
}

// Disarm retires one fault (it fired, or its component was repaired).
func (in *Injector) Disarm(id int) { in.disarmed[id] = true }

// DisarmBefore retires every instantaneous fault (crash, disk corruption)
// striking at or before t — the restart driver's "the dead node was
// rebooted, the bad stripe was rewritten" step after a recovery at global
// time t. Interval effects (degrade, flap) stay armed: a renegotiated NIC
// is still slow after the job restarts.
func (in *Injector) DisarmBefore(t float64) {
	for _, f := range in.Sched.Faults {
		if f.Start <= t && (f.Kind == RankCrash || f.Kind == DiskCorrupt) {
			in.disarmed[f.ID] = true
		}
	}
}

// PlanAt builds the mp crash plan for a segment whose clocks start at
// global time offset: every armed crash strikes at its global time minus
// the offset (crashes already in the past strike immediately — a node that
// was never repaired dies again at once).
func (in *Injector) PlanAt(offset float64) *mp.FaultPlan {
	plan := mp.NewFaultPlan(in.Sched.Ranks)
	for _, f := range in.Sched.Faults {
		if f.Kind != RankCrash || in.disarmed[f.ID] {
			continue
		}
		plan.Crash(f.Rank, math.Max(0, f.Start-offset), f.Cause)
	}
	return plan
}

// HealthAt builds the netsim fabric health for a segment starting at
// global time offset, or nil when no armed fabric fault overlaps it.
func (in *Injector) HealthAt(offset float64) *netsim.Health {
	h := netsim.NewHealth()
	any := false
	for _, f := range in.Sched.Faults {
		if in.disarmed[f.ID] {
			continue
		}
		switch f.Kind {
		case LinkDegrade:
			h.DegradeNIC(f.Rank, f.Start, f.End, f.Severity)
			any = true
		case PortFlap:
			h.FlapPort(f.Rank, f.Start, f.End, f.Severity)
			any = true
		}
	}
	if !any {
		return nil
	}
	h = h.Shift(offset)
	if h.Empty() {
		return nil
	}
	return h
}

// DiskFaultAt returns the first armed disk-corruption fault for rank that
// has struck by global time t. The checkpoint writer corrupts the stripe it
// is writing and disarms the fault (one bad stripe per dead drive).
func (in *Injector) DiskFaultAt(rank int, t float64) (id int, ok bool) {
	for _, f := range in.Sched.Faults {
		if f.Kind == DiskCorrupt && f.Rank == rank && f.Start <= t && !in.disarmed[f.ID] {
			return f.ID, true
		}
	}
	return 0, false
}

// DegradedSeconds sums degraded link-seconds and flapping port-seconds of
// the armed schedule over [0, horizon) — the reliability exposure metric
// reported by the fault summary.
func (in *Injector) DegradedSeconds() (degraded, flapping float64) {
	h := in.HealthAt(0)
	return h.DegradedSeconds(in.Sched.Horizon)
}
