package job

import (
	"os"
	"path/filepath"
	"testing"

	"spacesim/internal/faults"
	"spacesim/internal/obs"
)

// An interrupt raised before the run starts stops a run with faults in its
// probe: the result is the probe's, interrupted; no recovery segment runs,
// the schedule is never handed on, and no checkpoint directory is made,
// neither a temporary one nor the caller's.
func TestExecuteInterruptedProbe(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	sp := Defaults
	sp.N, sp.Ranks, sp.Steps, sp.FaultSeed, sp.FaultAccel = 300, 2, 4, 11, 3000
	for _, dir := range []string{"", filepath.Join(t.TempDir(), "ck")} {
		segments, started := 0, false
		res, rec, err := Execute(sp, Hooks{
			NewObs:    func() *obs.Obs { segments++; return obs.New(false) },
			Interrupt: func() bool { return true },
			Dir:       dir,
			Started:   func(faults.Schedule) { started = true },
		})
		if err != nil {
			t.Fatalf("dir %q: %v", dir, err)
		}
		if !res.Interrupted || res.CompletedSteps != 0 {
			t.Fatalf("dir %q: interrupted %v at step %d, want interrupted at 0", dir, res.Interrupted, res.CompletedSteps)
		}
		if segments != 0 || started || rec.Attempts != 0 {
			t.Fatalf("dir %q: %d segments, started %v, %d attempts after an interrupted probe", dir, segments, started, rec.Attempts)
		}
		if dir != "" {
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Fatalf("checkpoint directory %s made: %v", dir, err)
			}
		}
	}
	if ents, err := os.ReadDir(tmp); err != nil || len(ents) != 0 {
		t.Fatalf("temporary directory holds %v (%v), want nothing", ents, err)
	}
}

// A submitted spec's zero fields take Defaults; the fault acceleration only
// when faults are on, so a spec without faults keys no acceleration.
func TestWithDefaults(t *testing.T) {
	if got := (Spec{}).WithDefaults(); got != (Spec{
		Scenario: "plummer", N: 4000, Ranks: 16, Steps: 10, Seed: 1,
		DT: 0.005, Theta: 0.7, Eps: 0.01, CheckpointEvery: 2,
	}) {
		t.Fatalf("empty spec defaults to %+v", got)
	}
	if got := (Spec{FaultSeed: 3}).WithDefaults().FaultAccel; got != faults.DefaultAccel {
		t.Fatalf("fault accel defaults to %g, want %g", got, float64(faults.DefaultAccel))
	}
	if got := (Spec{N: 7, Eps: 0.5}).WithDefaults(); got.N != 7 || got.Eps != 0.5 {
		t.Fatalf("set fields overwritten: %+v", got)
	}
}
