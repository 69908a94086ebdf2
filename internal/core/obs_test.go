package core

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"spacesim/internal/obs"
	"spacesim/internal/obs/analysis"
)

// Observation must be purely observational: a grouped-engine run with the
// tracer enabled — or with event retention plus a post-run analysis — at
// any worker count, must produce bit-identical positions and velocities,
// every rank's virtual clock and the makespan, on one rank and on eight
// (the virtual schedule repeats: DESIGN.md §12).
func TestTracingBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	ics := PlummerSphere(rng, 600, 1.0)

	run := func(procs int, mode string, workers int) Result {
		cl := testCluster()
		var o *obs.Obs
		switch mode {
		case "trace":
			o = obs.New(true)
		case "analyze":
			o = obs.New(false).EnableEvents()
		}
		if o != nil {
			cl = cl.WithObs(o)
		}
		res := Run(RunConfig{
			Cluster: cl, Procs: procs, Steps: 1,
			Opt:          Options{Theta: 0.6, Eps: 0.02, DT: 0.005, Workers: workers},
			GatherBodies: true,
		}, ics)
		if mode == "analyze" {
			// The analysis itself is read-only on telemetry; it must
			// succeed and account for the whole makespan.
			rep, err := analysis.Analyze(o, cl)
			if err != nil {
				t.Fatalf("procs=%d workers=%d: analyze: %v", procs, workers, err)
			}
			var segSum float64
			for _, s := range rep.CriticalPath.Segments {
				segSum += s.Dur()
			}
			if d := segSum - rep.MakespanSec; d > 1e-9*rep.MakespanSec || d < -1e-9*rep.MakespanSec {
				t.Fatalf("procs=%d workers=%d: critical path segments cover %v of makespan %v",
					procs, workers, segSum, rep.MakespanSec)
			}
		}
		return res
	}

	for _, procs := range []int{1, 8} {
		ref := run(procs, "plain", 1)
		if len(ref.Bodies) != 600 {
			t.Fatalf("procs=%d: gathered %d bodies, want 600", procs, len(ref.Bodies))
		}
		for _, mode := range []string{"plain", "trace", "analyze"} {
			for _, workers := range []int{1, 4} {
				if mode == "plain" && workers == 1 {
					continue // the reference itself
				}
				got := run(procs, mode, workers)
				for i := range ref.Bodies {
					if got.Bodies[i].Pos != ref.Bodies[i].Pos || got.Bodies[i].Vel != ref.Bodies[i].Vel {
						t.Fatalf("procs=%d mode=%v workers=%d: body %d differs: %+v vs %+v",
							procs, mode, workers, i, got.Bodies[i], ref.Bodies[i])
					}
				}
				if !slices.Equal(got.Comm.RankClocks, ref.Comm.RankClocks) || got.Comm.ElapsedVirtual != ref.Comm.ElapsedVirtual {
					t.Fatalf("procs=%d mode=%v workers=%d: rank clocks %v, makespan %v; want %v, %v",
						procs, mode, workers, got.Comm.RankClocks, got.Comm.ElapsedVirtual, ref.Comm.RankClocks, ref.Comm.ElapsedVirtual)
				}
			}
		}
	}
}

// The virtual-time rows of the trace repeat byte for byte: an 8-rank step
// traced at one walk worker, at four, and at one again writes the same rank
// (pid 1) and network (pid 2) events. Host rows carry host time and are
// left out.
func TestTraceReproducible(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	ics := PlummerSphere(rng, 600, 1.0)
	virtualRows := func(workers int) []string {
		o := obs.New(true)
		Run(RunConfig{
			Cluster: testCluster().WithObs(o), Procs: 8, Steps: 1,
			Opt: Options{Theta: 0.6, Eps: 0.02, DT: 0.005, Workers: workers},
		}, ics)
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := o.WriteTraceFile(path); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		readJSON(t, path, &doc)
		var rows []string
		for _, raw := range doc.TraceEvents {
			var ev struct {
				Pid int `json:"pid"`
			}
			if err := json.Unmarshal(raw, &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Pid == obs.PidRanks || ev.Pid == obs.PidNet {
				rows = append(rows, string(raw))
			}
		}
		return rows
	}
	ref := virtualRows(1)
	if len(ref) == 0 {
		t.Fatal("no rank or network events")
	}
	for _, workers := range []int{4, 1} {
		got := virtualRows(workers)
		for i := range min(len(got), len(ref)) {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: event %d is %s, want %s", workers, i, got[i], ref[i])
			}
		}
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d rank and network events, want %d", workers, len(got), len(ref))
		}
	}
}

// The engine counters must be populated on a multi-rank run, and the
// per-rank breakdown must expose nonzero compute and wait time. The run is
// TestSmokeReports' size (600 bodies, 3 ranks) with tracing on, and the trace
// and metrics files it writes must hold the formats' invariants.
func TestEngineMetricsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ics := PlummerSphere(rng, 600, 1.0)
	o := obs.New(true)
	Run(RunConfig{
		Cluster: testCluster().WithObs(o), Procs: 3, Steps: 1,
		Opt: Options{Theta: 0.6, Eps: 0.02, DT: 0.005},
	}, ics)

	dir := t.TempDir()
	tracePath, metricsPath := filepath.Join(dir, "trace.json"), filepath.Join(dir, "metrics.json")
	if err := o.WriteTraceFile(tracePath); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteMetricsFile(metricsPath); err != nil {
		t.Fatal(err)
	}
	checkTraceFile(t, tracePath)

	var snap obs.MetricsSnapshot
	readJSON(t, metricsPath, &snap)
	if snap.SchemaVersion != obs.MetricsSchemaVersion {
		t.Errorf("schema_version = %d, want %d", snap.SchemaVersion, obs.MetricsSchemaVersion)
	}
	for _, name := range []string{
		"core.fetch.requests", "core.buckets", "mp.abm.batches",
	} {
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, snap.Counters[name])
		}
	}
	// One list a group: the list-length histograms carry the count, sum
	// and maximum of the lists.
	for _, name := range []string{"core.list.cells_len", "core.list.bodies_len"} {
		if h := snap.Histograms[name]; h.Count != snap.Counters["core.buckets"] || h.Sum <= 0 || h.Max <= 0 {
			t.Errorf("histogram %s: count %d for %d groups, sum %v, max %v; want one list a group, sum and max > 0",
				name, h.Count, snap.Counters["core.buckets"], h.Sum, h.Max)
		}
	}
	if len(snap.Ranks) != 3 {
		t.Fatalf("want 3 rank breakdowns, got %d", len(snap.Ranks))
	}
	for _, m := range snap.Ranks {
		if m.ComputeSec <= 0 || m.Clock <= 0 || m.WaitSec < 0 {
			t.Errorf("rank %d: compute %v wait %v clock %v, want compute, clock > 0 and wait >= 0",
				m.Rank, m.ComputeSec, m.WaitSec, m.Clock)
		}
		// The clock moves only by compute, disk, send overhead and waits.
		if parts := m.ComputeSec + m.DiskSec + m.SendSec + m.WaitSec; math.Abs(parts-m.Clock) > 1e-9*m.Clock {
			t.Errorf("rank %d: compute+disk+send+wait %.17g differs from clock %.17g", m.Rank, parts, m.Clock)
		}
		if m.Messages <= 0 {
			t.Errorf("rank %d: no messages recorded", m.Rank)
		}
	}
	if len(snap.Histograms) == 0 {
		t.Error("no histograms in the metrics file")
	}
	for name, h := range snap.Histograms {
		if h.Count < 0 || (h.Count > 0 && !(h.Min <= h.P50 && h.P50 <= h.P95 && h.P95 <= h.P99 && h.P99 <= h.Max)) {
			t.Errorf("histogram %s: inconsistent summary %+v", name, h)
		}
	}
}

// checkTraceFile asserts the trace_event file's invariants: events exist,
// each is a complete span (nonnegative duration), metadata or an async
// begin/end, with a name and a nonnegative timestamp; at least one span;
// and events on the rank pid.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	readJSON(t, path, &doc)
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no traceEvents")
	}
	spans, rankEvents := 0, 0
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
			if ev.Dur < 0 {
				t.Errorf("event %d (%s): negative duration %g", i, ev.Name, ev.Dur)
			}
		case "M", "b", "e":
		default:
			t.Errorf("event %d: unexpected phase %q", i, ev.Ph)
		}
		if ev.Name == "" {
			t.Errorf("event %d: empty name", i)
		}
		if ev.Ts < 0 {
			t.Errorf("event %d (%s): negative timestamp %g", i, ev.Name, ev.Ts)
		}
		if ev.Pid == obs.PidRanks {
			rankEvents++
		}
	}
	if spans == 0 {
		t.Error("no complete (ph=X) span events")
	}
	if rankEvents == 0 {
		t.Errorf("no events on the rank pid (%d)", obs.PidRanks)
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// A metrics snapshot is a function of the run (the obs package's invariant
// 2): a 16-rank run at GOMAXPROCS 1 and 4 gives the same registry, float
// sums included, and the same per-rank breakdowns.
func TestSnapshotAtAnyWidth(t *testing.T) {
	ics := ColdSphere(rand.New(rand.NewSource(5)), 2048, 1.0)
	snap := func(width int) (s obs.MetricsSnapshot) {
		atWidth(width, func() {
			o := obs.New(false)
			res := Run(RunConfig{
				Cluster: testCluster().WithObs(o), Procs: 16, Steps: 2,
				Opt: Options{Theta: 0.7, Eps: 0.01, DT: 0.005},
			}, ics)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			s = o.Snapshot()
		})
		return s
	}
	a, b := snap(1), snap(4)
	if len(a.Counters) == 0 || len(a.Histograms) == 0 || len(a.Ranks) != 16 {
		t.Fatalf("empty snapshot: %d counters, %d histograms, %d ranks", len(a.Counters), len(a.Histograms), len(a.Ranks))
	}
	for _, part := range []struct {
		name string
		a, b any
	}{
		{"counters", a.Counters, b.Counters},
		{"gauges", a.Gauges, b.Gauges},
		{"histograms", a.Histograms, b.Histograms},
		{"texts", a.Texts, b.Texts},
		{"ranks", a.Ranks, b.Ranks},
	} {
		if !reflect.DeepEqual(part.a, part.b) {
			t.Errorf("%s at width 1:\n%+v\nat width 4:\n%+v", part.name, part.a, part.b)
		}
	}
}
