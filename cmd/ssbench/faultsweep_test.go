package main

import (
	"strings"
	"testing"

	"spacesim/internal/faults"
)

// One crash at K=2 rolled back to step 4 of 12, each invariant of a sweep
// entry broken at a time.
func TestFaultsweepCheckEntry(t *testing.T) {
	rep := &FaultsweepReport{Steps: 12, BaselineVirtualSec: 1, ScheduledCrashes: 1}
	valid := func() FaultsweepEntry {
		same := true
		return FaultsweepEntry{IntervalSteps: 2, Recovery: faults.Recovery{
			Crashes: 1, Attempts: 2, CrashRanks: []int{3}, CrashTimesSec: []float64{0.5}, RestoredSteps: []int{4},
			ReplayedSteps: 3, LostVirtualSec: 0.2, TotalVirtualSec: 1.3, CheckpointWrites: 6, RecoveredBitIdentical: &same}}
	}
	if err := rep.checkEntry(valid()); err != nil {
		t.Fatalf("valid entry rejected: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(e *FaultsweepEntry)
		wantErr string
	}{
		{"attempts", func(e *FaultsweepEntry) { e.Attempts = 1 }, "1 attempts inconsistent with 1 crashes"},
		{"unfired crash", func(e *FaultsweepEntry) {
			e.Crashes, e.Attempts, e.CrashRanks, e.CrashTimesSec, e.RestoredSteps = 0, 1, nil, nil, nil
		}, "0 crashes fired, schedule holds 1"},
		{"extra rollback", func(e *FaultsweepEntry) { e.RestoredSteps = []int{2, 4} }, "2 rollbacks exceed 1 crashes"},
		{"rollback past the run", func(e *FaultsweepEntry) { e.RestoredSteps = []int{12} }, "rollback step 12 outside [0, 12)"},
		{"negative cost", func(e *FaultsweepEntry) { e.LostVirtualSec = -1 }, "negative recovery metric"},
		{"negative overhead", func(e *FaultsweepEntry) { e.IOOverheadSec = -1 }, "negative I/O overhead"},
		{"diverged", func(e *FaultsweepEntry) {
			diverged := false
			e.RecoveredBitIdentical = &diverged
		}, "recovery verification recorded a divergent state"},
		{"below baseline", func(e *FaultsweepEntry) { e.TotalVirtualSec = 0.9 }, "total virtual 0.9 below the fault-free baseline 1"},
	}
	for _, c := range cases {
		e := valid()
		c.mutate(&e)
		if err := rep.checkEntry(e); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.wantErr)
		}
	}
}
