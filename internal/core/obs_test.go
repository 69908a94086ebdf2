package core

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"spacesim/internal/obs"
	"spacesim/internal/obs/analysis"
)

// Observation must be purely observational: a grouped-engine run with the
// tracer enabled — or with event retention plus a post-run analysis — at
// any worker count, must produce bit-identical accelerations and
// velocities. Virtual clocks are additionally pinned on single-rank runs,
// where they are a pure function of the charged work; on multi-rank
// polling workloads the clock depends on host-time message arrival order
// (a pre-existing property of the latency-hiding engine, see DESIGN.md on
// virtual-time semantics), so only the numerics are compared there.
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

	for _, procs := range []int{1, 3} {
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
				if procs == 1 {
					for r := range ref.Comm.RankClocks {
						if got.Comm.RankClocks[r] != ref.Comm.RankClocks[r] {
							t.Fatalf("procs=%d mode=%v workers=%d: rank %d clock %v, want %v",
								procs, mode, workers, r, got.Comm.RankClocks[r], ref.Comm.RankClocks[r])
						}
					}
				}
			}
		}
	}
}

// The eval pool's accounting identities, which keep core.pool_utilization —
// busy / (wall × workers) — a share: every sink group is evaluated exactly
// once, on a worker, inline on the rank or in pass 2; the rank evaluates no
// more than all of them; and the workers are busy no longer than the pool's
// wall time allows.
func TestEvalPoolAccounting(t *testing.T) {
	ics := PlummerSphere(rand.New(rand.NewSource(46)), 3000, 1.0)
	for _, procs := range []int{1, 8} {
		o := obs.New(false)
		res := Run(RunConfig{
			Cluster: testCluster().WithObs(o), Procs: procs, Steps: 2,
			Opt: Options{Theta: 0.7, Eps: 0.01, DT: 0.005, MaxLeaf: 16, Workers: 2},
		}, ics)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		snap := o.Snapshot()
		c := snap.Counters
		jobs, inline, buckets := c["core.pool.jobs"], c["core.pool.inline_jobs"], c["core.buckets"]
		busy, wall, workers := c["core.pool.busy_ns"], c["core.pool.wall_ns"], snap.Gauges["core.pool.workers"]
		if jobs != buckets || buckets == 0 || inline > jobs {
			t.Errorf("procs=%d: %d evaluations (%d inline) of %d groups; want each group once", procs, jobs, inline, buckets)
		}
		if workers != 2 || float64(busy) > float64(wall)*workers {
			t.Errorf("procs=%d: pool busy %d ns on %v workers over %d ns wall", procs, busy, workers, wall)
		}
	}
}

// The engine counters must be populated on a multi-rank run, and the
// per-rank breakdown must expose nonzero compute and wait time. The run is
// `make smoke`'s size (600 bodies, 3 ranks) with tracing on, and the trace
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
		"core.fetch.requests", "core.buckets", "core.list.cells",
		"core.list.bodies", "core.pool.jobs", "mp.abm.batches",
	} {
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, snap.Counters[name])
		}
	}
	// Every branch fetched is entered by the group that opened it, at least.
	if hits, req := snap.Counters["core.bodycache.hits"], snap.Counters["core.fetch.requests"]; hits < req {
		t.Errorf("core.bodycache.hits = %d for %d fetches, want at least one hit per fetched branch", hits, req)
	}
	if snap.Gauges["core.list.cells_max"] <= 0 {
		t.Errorf("gauge core.list.cells_max = %v, want > 0", snap.Gauges["core.list.cells_max"])
	}
	if len(snap.Ranks) != 3 {
		t.Fatalf("want 3 rank breakdowns, got %d", len(snap.Ranks))
	}
	for _, m := range snap.Ranks {
		if m.ComputeSec <= 0 || m.Clock <= 0 || m.WaitSec < 0 {
			t.Errorf("rank %d: compute %v wait %v clock %v, want compute, clock > 0 and wait >= 0",
				m.Rank, m.ComputeSec, m.WaitSec, m.Clock)
		}
		if m.ComputeSec+m.WaitSec > m.Clock*(1+1e-9)+1e-9 {
			t.Errorf("rank %d: compute+wait %.6g exceeds clock %.6g", m.Rank, m.ComputeSec+m.WaitSec, m.Clock)
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
