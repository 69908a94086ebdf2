package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// Validate, ValidateBodies and Run must agree on every configuration and on
// wherever the first body is put: what they refuse, Run refuses with the same
// error before a rank starts; what they accept, Run completes. No input may
// panic.
func FuzzRunConfig(f *testing.F) {
	nan := math.NaN()
	for _, s := range []struct {
		procs, steps   int
		theta, eps, dt float64
		x0             float64 // body 0's x coordinate; 0 leaves it where it is
	}{
		// The hostile table: each of these panicked inside a rank or ran to
		// completion on NaNs before Validate existed.
		{2, -1, 0.7, 0.01, 0.005, 0},
		{0, 1, 0.7, 0.01, 0.005, 0},
		{500, 1, 0.7, 0.01, 0.005, 0},
		{2, 1, nan, 0.01, 0.005, 0},
		{2, 1, -1, 0.01, 0.005, 0},
		{2, 1, math.Inf(1), 0.01, 0.005, 0},
		{2, 1, 0.7, nan, 0.005, 0},
		{2, 1, 0.7, -1, 0.005, 0},
		{2, 1, 0.7, 0.01, nan, 0},
		{2, 1, 0.7, 0.01, -0.005, 0},
		// The valid corners.
		{2, 0, 0.7, 0.01, 0.005, 0},
		{2, 1, 0.7, 0, 0.005, 0},
		{2, 1, 0.7, 5e-324, 0.005, 0},
		{2, 1, 1e-6, 0.01, 0.005, 0},
		{2, 1, 1e6, 0.01, 0.005, 0},
		{2, 1, 0.7, 0.01, 0, 0},
		{1, 2, 0.7, 0.01, 0.005, 0},
		{8, 1, 0.7, 0.01, 0.005, 0},
		{64, 1, 0.7, 0.01, 0.005, 0}, // more ranks than bodies
		// Hostile bodies under a valid configuration: the first ran to a table
		// of NaNs before ValidateBodies existed, the second squares to +Inf.
		{2, 1, 0.7, 0.01, 0.005, nan},
		{2, 1, 0.7, 0.01, 0.005, 1e300},
	} {
		f.Add(s.procs, s.steps, s.theta, s.eps, s.dt, s.x0)
	}
	plummer := PlummerSphere(rand.New(rand.NewSource(20)), 48, 1.0)
	cl := testCluster()
	f.Fuzz(func(t *testing.T, procs, steps int, theta, eps, dt, x0 float64) {
		ics := append([]Body(nil), plummer...)
		if x0 != 0 {
			ics[0].Pos[0] = x0
		}
		// Bound the cost of an accepted run, not its validity.
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
		if want == nil {
			want = ValidateBodies(ics)
		}
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

// Bodies that leave the integrable cube mid-run — an absurd timestep throws
// them past 2^400 or to infinity — stop the run at that step, on every rank
// at once (the cube is the world's), with one "core: step N:" error where the
// run used to finish on NaNs or 300-digit energies.
func TestBodiesLeavingTheCubeStopTheRun(t *testing.T) {
	ics := PlummerSphere(rand.New(rand.NewSource(22)), 300, 1.0)
	for _, procs := range []int{1, 3} {
		for _, dt := range []float64{1e150, 1e300} {
			res := Run(RunConfig{
				Cluster: testCluster(), Procs: procs, Steps: 3,
				Opt: Options{Theta: 0.7, Eps: 0.01, DT: dt},
			}, ics)
			if res.Err == nil || !strings.HasPrefix(res.Err.Error(), "core: step ") ||
				!strings.Contains(res.Err.Error(), "bounding cube") || res.CompletedSteps >= res.Steps {
				t.Errorf("procs=%d dt=%g: error %v after %d of %d steps, want a core: step error before the last",
					procs, dt, res.Err, res.CompletedSteps, res.Steps)
			}
		}
	}
}

// Run and RunRecovered refuse initial conditions no step can integrate with
// one "core:" error before a rank starts, and accept the degenerate ones the
// engine handles (no bodies, one body, coincident bodies, a huge offset).
func TestValidateBodies(t *testing.T) {
	base := PlummerSphere(rand.New(rand.NewSource(21)), 32, 1.0)
	with := func(edit func(b []Body)) []Body {
		b := append([]Body(nil), base...)
		edit(b)
		return b
	}
	inf := math.Inf(1)
	for _, tc := range []struct {
		name string
		ics  []Body
		want string // substring of the error; "" means accepted
	}{
		{"plummer", base, ""},
		{"no bodies", nil, ""},
		{"one body", base[:1], ""},
		{"coincident", with(func(b []Body) { b[1].Pos = b[0].Pos }), ""},
		{"all at one point", with(func(b []Body) {
			for i := range b {
				b[i].Pos = b[0].Pos
			}
		}), ""},
		{"far from the origin", with(func(b []Body) {
			for i := range b {
				b[i].Pos[2] += 1e6
			}
		}), ""},
		{"widest cube", with(func(b []Body) { b[3].Pos[0] = 0x1p399 }), ""},
		{"NaN position", with(func(b []Body) { b[5].Pos[1] = math.NaN() }), "body 5 has position"},
		{"infinite position", with(func(b []Body) { b[0].Pos[2] = -inf }), "body 0 has position"},
		{"NaN velocity", with(func(b []Body) { b[31].Vel[0] = math.NaN() }), "body 31 has velocity"},
		{"infinite velocity", with(func(b []Body) { b[2].Vel[2] = inf }), "body 2 has velocity"},
		{"NaN mass", with(func(b []Body) { b[7].Mass = math.NaN() }), "body 7 has mass"},
		{"infinite mass", with(func(b []Body) { b[7].Mass = inf }), "body 7 has mass"},
		{"cube too wide", with(func(b []Body) { b[3].Pos[0] = 0x1p401 }), "bounding cube"},
		{"cube too narrow", with(func(b []Body) {
			for i := range b {
				b[i].Pos = b[i].Pos.Scale(0x1p-410)
			}
		}), "bounding cube"},
		{"centre overflows", with(func(b []Body) {
			for i := range b {
				b[i].Pos = [3]float64{math.MaxFloat64, 0, 0}
			}
		}), "bounding cube"},
	} {
		err := ValidateBodies(tc.ics)
		if (tc.want == "") != (err == nil) || err != nil && (!strings.Contains(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), "core: ")) {
			t.Errorf("%s: ValidateBodies: %v, want %q", tc.name, err, tc.want)
			continue
		}
		cfg := RunConfig{Cluster: testCluster(), Procs: 2, Steps: 1, Opt: Options{Theta: 0.7, Eps: 0.01, DT: 0.005, Workers: 1}}
		res := Run(cfg, tc.ics)
		_, _, rerr := RunRecovered(RecoveryConfig{RunConfig: cfg}, tc.ics)
		for which, got := range map[string]error{"Run": res.Err, "RunRecovered": rerr} {
			if fmt.Sprint(got) != fmt.Sprint(err) {
				t.Errorf("%s: %s: %v, ValidateBodies: %v", tc.name, which, got, err)
			}
		}
		if err != nil && (res.EnergyHistory != nil || res.ElapsedVirtual != 0) {
			t.Errorf("%s: Run started ranks on bodies it refused", tc.name)
		}
	}
}
