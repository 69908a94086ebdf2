package faults

import (
	"errors"
	"fmt"
)

// Recovery is what checkpoint–restart recovery cost one run: the record
// core.RunRecovered fills, ANALYSIS.json carries as "faults" and each
// FAULTSWEEP.json entry embeds. Times are global virtual seconds (since the
// original start).
type Recovery struct {
	// Attempts counts run segments (1 = never crashed); Crashes the rank
	// crashes that fired, with their ranks and global virtual times.
	Attempts      int       `json:"attempts"`
	Crashes       int       `json:"crashes"`
	CrashRanks    []int     `json:"crash_ranks,omitempty"`
	CrashTimesSec []float64 `json:"crash_times_sec,omitempty"`
	// RestoredSteps are the checkpoint steps each restart rolled back to
	// (0 = initial conditions); ReplayedSteps totals re-run steps.
	RestoredSteps []int `json:"restored_steps,omitempty"`
	ReplayedSteps int   `json:"replayed_steps"`
	// LostVirtualSec is discarded progress: each aborted segment's elapsed
	// time minus the clock of the checkpoint it resumed from (when that
	// checkpoint was written in the same segment). TotalVirtualSec is the
	// machine cost summed over every segment including replay.
	LostVirtualSec  float64 `json:"lost_virtual_sec"`
	TotalVirtualSec float64 `json:"total_virtual_sec"`
	// DegradedLinkSec / FlappingPortSec are the schedule's fabric-fault
	// exposure (link-seconds of degraded capacity, port-seconds of added
	// latency).
	DegradedLinkSec float64 `json:"degraded_link_sec"`
	FlappingPortSec float64 `json:"flapping_port_sec"`
	// CheckpointWrites counts completed checkpoints across all segments;
	// CheckpointSec is rank 0's virtual disk time spent writing them;
	// CorruptStripes the checkpoint sets rejected during recovery scans
	// because a stripe failed verification.
	CheckpointWrites int     `json:"checkpoint_writes"`
	CheckpointSec    float64 `json:"checkpoint_sec"`
	CorruptStripes   int     `json:"corrupt_stripes"`
	// ResumedFromStep is the on-disk checkpoint step the first segment
	// started from when the run resumed a stopped job (0 = the initial
	// conditions).
	ResumedFromStep int `json:"resumed_from_step,omitempty"`
	// RecoveredBitIdentical, when set, records the outcome of a
	// verification pass against an uninterrupted twin run.
	RecoveredBitIdentical *bool `json:"recovered_bit_identical,omitempty"`
}

// Check holds the invariants of a completed recovery: one attempt per crash
// plus one, a rank and a nonnegative time for every crash, no more rollbacks
// than crashes and none to a negative step, no negative cost, and no
// verification that recorded a divergent state.
func (r *Recovery) Check() error {
	if r.Attempts < 1 {
		return fmt.Errorf("attempts %d < 1", r.Attempts)
	}
	if r.Crashes != len(r.CrashRanks) || r.Crashes != len(r.CrashTimesSec) {
		return fmt.Errorf("%d crashes but %d ranks, %d times",
			r.Crashes, len(r.CrashRanks), len(r.CrashTimesSec))
	}
	if r.Attempts != r.Crashes+1 {
		return fmt.Errorf("%d attempts inconsistent with %d crashes", r.Attempts, r.Crashes)
	}
	if len(r.RestoredSteps) > r.Crashes {
		return fmt.Errorf("%d rollbacks exceed %d crashes", len(r.RestoredSteps), r.Crashes)
	}
	for i, t := range r.CrashTimesSec {
		if t < 0 {
			return fmt.Errorf("crash %d at negative time %g", i, t)
		}
	}
	for _, s := range r.RestoredSteps {
		if s < 0 {
			return fmt.Errorf("rollback to negative step %d", s)
		}
	}
	if r.ReplayedSteps < 0 || r.LostVirtualSec < 0 || r.TotalVirtualSec < 0 ||
		r.DegradedLinkSec < 0 || r.FlappingPortSec < 0 ||
		r.CheckpointWrites < 0 || r.CheckpointSec < 0 || r.CorruptStripes < 0 ||
		r.ResumedFromStep < 0 {
		return fmt.Errorf("negative recovery metric: %+v", *r)
	}
	if r.RecoveredBitIdentical != nil && !*r.RecoveredBitIdentical {
		return errors.New("recovery verification recorded a divergent state")
	}
	return nil
}
