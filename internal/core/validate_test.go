package core

import (
	"math"
	"math/rand"
	"testing"
)

// Validate and Run must agree on every configuration: what Validate refuses,
// Run refuses with the same error before a rank starts; what Validate
// accepts, Run completes. No input may panic.
func FuzzRunConfig(f *testing.F) {
	nan := math.NaN()
	for _, s := range []struct {
		procs, steps   int
		theta, eps, dt float64
	}{
		// The hostile table: each of these panicked inside a rank or ran to
		// completion on NaNs before Validate existed.
		{2, -1, 0.7, 0.01, 0.005},
		{0, 1, 0.7, 0.01, 0.005},
		{500, 1, 0.7, 0.01, 0.005},
		{2, 1, nan, 0.01, 0.005},
		{2, 1, -1, 0.01, 0.005},
		{2, 1, math.Inf(1), 0.01, 0.005},
		{2, 1, 0.7, nan, 0.005},
		{2, 1, 0.7, -1, 0.005},
		{2, 1, 0.7, 0.01, nan},
		{2, 1, 0.7, 0.01, -0.005},
		// The valid corners.
		{2, 0, 0.7, 0.01, 0.005},
		{2, 1, 0.7, 0, 0.005},
		{2, 1, 0.7, 5e-324, 0.005},
		{2, 1, 1e-6, 0.01, 0.005},
		{2, 1, 1e6, 0.01, 0.005},
		{2, 1, 0.7, 0.01, 0},
		{1, 2, 0.7, 0.01, 0.005},
		{8, 1, 0.7, 0.01, 0.005},
		{64, 1, 0.7, 0.01, 0.005}, // more ranks than bodies
	} {
		f.Add(s.procs, s.steps, s.theta, s.eps, s.dt)
	}
	ics := PlummerSphere(rand.New(rand.NewSource(20)), 48, 1.0)
	cl := testCluster()
	f.Fuzz(func(t *testing.T, procs, steps int, theta, eps, dt float64) {
		// Bound the cost of an accepted run, not its validity. Positions
		// overflowing under an absurd timestep are the NaN-body work of
		// ROADMAP item 8(c), not a configuration error.
		if steps > 2 {
			steps = 2
		}
		if dt > 0.01 {
			dt = 0.01
		}
		cfg := RunConfig{
			Cluster: cl, Procs: procs, Steps: steps,
			Opt: Options{Theta: theta, Eps: eps, DT: dt, Workers: 1},
		}
		want := cfg.Validate()
		res := Run(cfg, ics)
		if want == nil {
			if res.Err != nil {
				t.Fatalf("Validate accepted %+v, Run failed: %v", cfg.Opt, res.Err)
			}
			if len(res.EnergyHistory) != steps+1 {
				t.Fatalf("%d energy records after %d steps", len(res.EnergyHistory), steps)
			}
			return
		}
		if res.Err == nil || res.Err.Error() != want.Error() {
			t.Fatalf("Validate: %v; Run: %v", want, res.Err)
		}
		if res.EnergyHistory != nil || res.ElapsedVirtual != 0 {
			t.Fatalf("Run started ranks on a configuration it refused (%v)", want)
		}
	})
}
