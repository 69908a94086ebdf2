package job

import (
	"os"
	"path/filepath"
	"strings"
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

// A spec read from JSON starts from Defaults: an absent key keeps its
// default, a present one sets its field, zero included, and unknown keys
// are ignored.
func TestDecodeSpecKeepsZeros(t *testing.T) {
	for _, c := range []struct {
		body string
		want func(*Spec)
	}{
		{`{}`, func(*Spec) {}},
		{`{"n": 7, "eps": 0.5, "engine": "event"}`, func(sp *Spec) { sp.N, sp.Eps = 7, 0.5 }},
		{`{"n": 0, "eps": 0, "seed": 0}`, func(sp *Spec) { sp.N, sp.Eps, sp.Seed = 0, 0, 0 }},
		{`{"fault_seed": 3}`, func(sp *Spec) { sp.FaultSeed = 3 }},
		{`{"fault_seed": 3, "fault_accel": 0}`, func(sp *Spec) { sp.FaultSeed, sp.FaultAccel = 3, 0 }},
	} {
		got, err := DecodeSpec(strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.body, err)
		}
		want := Defaults
		c.want(&want)
		if got != want {
			t.Errorf("%s: decoded %+v, want %+v", c.body, got, want)
		}
	}
	if got := Defaults.FaultAccel; got != faults.DefaultAccel {
		t.Errorf("default fault acceleration %g, want %g", got, float64(faults.DefaultAccel))
	}
	if _, err := DecodeSpec(strings.NewReader(`{"n": "many"}`)); err == nil {
		t.Error("a string body count decoded")
	}
}
