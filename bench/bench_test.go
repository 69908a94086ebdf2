package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"spacesim/internal/core"
	"spacesim/internal/machine"
	"spacesim/internal/netsim"
)

// TestMain routes a re-exec'd child (spawn sets childEnv) into main, so the
// tests exercise the same fresh-process protocol as `go run ./bench`.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// miniature returns the flags of a miniature run of w: N=512 and one step
// for the N-body workloads, N=300 and two steps for the collapse.
func miniature(t *testing.T, w workload) cli {
	c := cli{seed: 1, dir: t.TempDir(), n: 512, steps: 1}
	if w.isSPH() {
		c.n, c.steps = 300, 2
	}
	return c
}

// TestMiniatureWorkloads runs every workload's two passes at miniature
// size through the real code path, child re-exec included, and checks that
// exactly the declared metrics come out.
func TestMiniatureWorkloads(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			c := miniature(t, w)
			e2e, err := endToEnd(sp, w, c)
			if err != nil {
				t.Fatal(err)
			}
			if !e2e.Correct || e2e.Failed != 0 || e2e.Attempted < 1 {
				t.Fatalf("end to end: correct=%v attempted=%d failed=%d %v", e2e.Correct, e2e.Attempted, e2e.Failed, e2e.failures)
			}
			if len(e2e.Metrics) != len(sp.EndToEnd) {
				t.Errorf("end to end: %d metrics, BENCHMARK.json declares %d", len(e2e.Metrics), len(sp.EndToEnd))
			}
			for name, v := range e2e.Metrics {
				if !(v.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, v.Value)
				}
			}

			layers, err := perLayer(sp, w, c)
			if err != nil {
				t.Fatal(err)
			}
			if !layers.Correct {
				t.Fatalf("traced pass failed: %v", layers.failures)
			}
			if len(layers.Metrics) != len(sp.PerLayer) {
				t.Errorf("per layer: %d metrics, BENCHMARK.json declares %d", len(layers.Metrics), len(sp.PerLayer))
			}
			own := "core.forces_host_s"
			if w.isSPH() {
				own = "sph.step_host_s"
			}
			if !(layers.Metrics[own].Value > 0) {
				t.Errorf("%s = %v, want > 0", own, layers.Metrics[own].Value)
			}

			var sf spanFile
			data, err := os.ReadFile(c.spanPath(w))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &sf); err != nil {
				t.Fatal(err)
			}
			if sf.Workload != w.Name || len(sf.Spans) == 0 {
				t.Errorf("span file: workload %q, %d spans", sf.Workload, len(sf.Spans))
			}
		})
	}
}

// TestSpanTiling checks the traced driver's spans: on every rank the phase
// spans lie inside their step and follow one another, and in the world
// budget the phases plus self time make up the step.
func TestSpanTiling(t *testing.T) {
	w, _ := findWorkload("plummer-dist8")
	ics, err := core.MakeICs(w.Scenario, 1, 512)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 3
	tr := tracedNBody(w, machine.SpaceSimulator(netsim.ProfileLAM), ics, steps)
	if tr.err != nil {
		t.Fatal(tr.err)
	}

	byID := map[int]span{}
	for _, s := range tr.spans {
		byID[s.ID] = s
	}
	lastEnd := map[int]float64{} // parent ID -> end of its latest child
	for _, s := range tr.spans {
		if s.HostEnd < s.HostStart || s.VirtEnd < s.VirtStart {
			t.Fatalf("span %+v runs backwards", s)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Name != spanStep || p.Rank != s.Rank || p.Eval != s.Eval {
			t.Fatalf("span %+v has parent %+v", s, p)
		}
		if s.HostStart < p.HostStart || s.HostEnd > p.HostEnd || s.VirtStart < p.VirtStart || s.VirtEnd > p.VirtEnd {
			t.Errorf("child %+v is not inside its step %+v", s, p)
		}
		if s.HostStart < lastEnd[s.Parent] {
			t.Errorf("child %+v overlaps its predecessor (ended %v)", s, lastEnd[s.Parent])
		}
		lastEnd[s.Parent] = s.HostEnd
	}

	bs, err := budgets(tr.spans)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != steps+1 {
		t.Fatalf("%d budgets for %d evaluations", len(bs), steps+1)
	}
	for _, b := range bs {
		sum := b.SelfHostS
		for _, name := range phaseNames {
			if b.PhaseHost[name] < 0 {
				t.Errorf("eval %d: %s host time %v < 0", b.Eval, name, b.PhaseHost[name])
			}
			sum += b.PhaseHost[name]
		}
		if b.SelfHostS < 0 {
			t.Errorf("eval %d: self time %v < 0", b.Eval, b.SelfHostS)
		}
		if math.Abs(sum-b.HostS) > 1e-9*math.Max(1, b.HostS) {
			t.Errorf("eval %d: phases + self = %v, step = %v", b.Eval, sum, b.HostS)
		}
	}

	m, samples := map[string]float64{}, map[string]summary{}
	budgetMetrics(m, samples, bs)
	five := m["core.decompose_host_s"] + m["core.build_host_s"] + m["core.forces_host_s"] +
		m["core.integrate_host_s"] + m["core.step_self_host_s"]
	var mean float64
	for _, b := range bs[1:] {
		mean += b.HostS / steps
	}
	if math.Abs(five-mean) > 0.01*mean {
		t.Errorf("the five core.*_host_s sum to %v, the mean traced step is %v", five, mean)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 0}, {19, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.N != 200 || s.Median != 100.5 || s.TailPct != 95 || math.Abs(s.Tail-190.05) > 1e-9 {
		t.Errorf("summarize(1..200) = %+v", s)
	}
	if s := summarize([]float64{3, 1, 2}); s.Median != 2 || s.TailPct != 0 || s.Tail != 0 {
		t.Errorf("summarize of three samples = %+v", s)
	}
}

// TestIQRShare pins the spread to Python's statistics.quantiles(xs, n=4):
// for 1..10 the cut points are 2.75, 5.5, 8.25.
func TestIQRShare(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := iqrShare(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want 1", got)
	}
	if got := iqrShare([]float64{5}); got != 0 {
		t.Errorf("iqrShare of one value = %v", got)
	}
}

func TestSelectMetrics(t *testing.T) {
	decls := []metricDecl{{Name: "a", Unit: "s"}, {Name: "b", Unit: "count"}}
	other := []metricDecl{{Name: "c", Unit: "s"}}
	got, err := selectMetrics(decls, map[string]float64{"a": 1, "b": 2, "c": 3}, other)
	if err != nil || len(got) != 2 || got["a"] != (metricValue{1, "s"}) {
		t.Errorf("selectMetrics = %v, %v", got, err)
	}
	if _, err := selectMetrics(decls, map[string]float64{"a": 1}, other); err == nil {
		t.Error("a declared metric that was not measured must be an error")
	}
	if _, err := selectMetrics(decls, map[string]float64{"a": 1, "b": 2, "zz": 3}, other); err == nil {
		t.Error("a measured metric that is not declared must be an error")
	}
	if _, err := selectMetrics(decls, map[string]float64{"a": math.NaN(), "b": 2}, other); err == nil {
		t.Error("a non-finite metric must be an error")
	}
}

// TestCompare runs -compare's judgement on two canned records.
func TestCompare(t *testing.T) {
	rec := func(host, setup, ferr float64, hostRuns []float64) *record {
		e := map[string]recordMetric{
			"host_s_per_step":  {Value: host, Unit: "s", Better: "lower", Bound: 0.1, Values: hostRuns},
			"setup_s":          {Value: setup, Unit: "s", Better: "lower", Bound: 0.25},
			"force_err_median": {Value: ferr, Unit: "ratio", Better: "lower", Bound: 0.1},
		}
		return &record{Schema: recordSchema, Seed: 1, Seconds: 12, Workloads: []workloadRecord{{Name: "w", EndToEnd: e}}}
	}
	base := rec(1.0, 0.020, 2.5e-3, nil)
	for _, c := range []struct {
		name              string
		b                 *record
		worse, unresolved int
	}{
		{"same", rec(1.0, 0.020, 2.5e-3, nil), 0, 0},
		{"within bound", rec(1.09, 0.020, 2.5e-3, nil), 0, 0},
		{"better", rec(0.5, 0.020, 2.5e-3, nil), 0, 0},
		{"host time worse", rec(1.11, 0.020, 2.5e-3, nil), 1, 0},
		{"setup worse but under the floor", rec(1.0, 0.060, 2.5e-3, nil), 0, 0},
		{"setup worse", rec(1.0, 0.080, 2.5e-3, nil), 1, 0},
		{"spread wider than the bound", rec(1.0, 0.020, 2.5e-3, []float64{0.7, 0.9, 1.0, 1.1, 1.3}), 0, 1},
		{"two worse", rec(1.2, 0.020, 3.0e-3, nil), 2, 0},
	} {
		if worse, unresolved := compareRecords(base, c.b); worse != c.worse || unresolved != c.unresolved {
			t.Errorf("%s: %d worse, %d unresolved; want %d, %d", c.name, worse, unresolved, c.worse, c.unresolved)
		}
	}
	failed := rec(1.0, 0.020, 2.5e-3, nil)
	failed.Workloads[0].OpsFailed = 1
	if worse, _ := compareRecords(base, failed); worse != 3 {
		t.Errorf("a failed run must miss every bound, got %d worse", worse)
	}

	// The file path: a written record reads back, a foreign schema does not.
	dir := t.TempDir()
	data, _ := json.Marshal(base)
	good := filepath.Join(dir, "a.json")
	if err := os.WriteFile(good, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compareMain([]string{good, good}); err != nil {
		t.Errorf("comparing a record with itself: %v", err)
	}
	bad := filepath.Join(dir, "b.json")
	if err := os.WriteFile(bad, []byte(`{"schema": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compareMain([]string{good, bad}); err == nil {
		t.Error("a record of another schema must be refused")
	}
}
