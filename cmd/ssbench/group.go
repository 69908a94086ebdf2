package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spacesim/internal/core"
	"spacesim/internal/gravity"
	"spacesim/internal/htree"
	"spacesim/internal/obs"
	"spacesim/internal/obs/analysis"
	"spacesim/internal/obs/ledger"
	"spacesim/internal/obs/live"
	"spacesim/internal/vec"
)

var benchOut = flag.String("o", "BENCH_treecode.json", "output path for the group benchmark JSON record")

// groupResult is one timed force-evaluation configuration.
type groupResult struct {
	Engine       string  `json:"engine"`
	Workers      int     `json:"workers"`
	Seconds      float64 `json:"seconds"`
	NsPerBody    float64 `json:"ns_per_body"`
	NsPerInter   float64 `json:"ns_per_interaction"`
	Interactions int64   `json:"interactions"`
	InterPerSec  float64 `json:"interactions_per_sec"`
}

// groupDistributed summarizes the virtual-time distributed run that the
// group benchmark performs to populate per-rank metrics.
type groupDistributed struct {
	Procs             int     `json:"procs"`
	Workers           int     `json:"workers"`
	Steps             int     `json:"steps"`
	ElapsedVirtualSec float64 `json:"elapsed_virtual_sec"`
	Gflops            float64 `json:"gflops"`
	MaxImbalance      float64 `json:"max_imbalance"`
	// WorkerUtilization is busy/(wall*workers) of the host-side eval pool,
	// derived from the core.pool.* counters.
	WorkerUtilization float64 `json:"worker_utilization"`
}

// groupReport is the BENCH_treecode.json payload.
//
// schema_version history:
//
//	1 — shared-memory engine comparison only (implicit; field absent)
//	2 — adds schema_version, the distributed run summary, and the embedded
//	    observability metrics snapshot (per-rank breakdown, interaction-list
//	    sizes, cache hit rates, worker-pool utilization)
//	3 — adds the trace-analysis summary of the distributed run (virtual
//	    makespan, parallel efficiency, critical-path breakdown, message
//	    latency p99); the metrics snapshot gains histograms
//	4 — adds the tree-construction benchmark block (`treebuild`): seed vs
//	    parallel-pipeline phase timings, speedups, and the bit-identity
//	    verdict. Written by `ssbench treebuild`, which merges into an
//	    existing record; the other blocks stay optional.
//	5 — added the engine scaling block (`scale`), a rank-count sweep of
//	    the event scheduler against the goroutine runtime it replaced.
//	    Nothing writes or reads the block any more; records that carry it
//	    still load, the key is skipped.
//	6 — adds the live-telemetry block (`live`): the time-series sampler's
//	    retained window (host/virtual time columns plus one ring per
//	    metric) and the final progress/ETA view. Written by any experiment
//	    run with -http / live sampling enabled.
//	7 — adds the build/host provenance block (`provenance`): go version,
//	    VCS revision, hostname, and the canonical config digest of the
//	    writing invocation (the key into the run ledger). Stamped by
//	    every writer.
//	8 — adds the kernel microbenchmark block (`kernels`): the sweep over
//	    list length of the production body and cell kernels per width
//	    beside the scalar Table 5 micro-kernels, and the bit-identity
//	    verdict of every width against the scalar reference (before
//	    ISSUE 24: body libm, body Karp and cell libm batch kernels against
//	    the seed evaluation). Written by `ssbench kernels`, which merges
//	    like treebuild does. Until the float32 mode was removed (PR 20)
//	    the sweep had two float32 rows and the block two more members,
//	    `rms_acc_err_float32` and `float32_err_budget`; they are no
//	    longer written and are ignored when read.
type groupReport struct {
	SchemaVersion   int                  `json:"schema_version"`
	N               int                  `json:"n"`
	Theta           float64              `json:"theta"`
	Eps             float64              `json:"eps"`
	MaxLeaf         int                  `json:"max_leaf"`
	GOMAXPROCS      int                  `json:"gomaxprocs"`
	Results         []groupResult        `json:"results"`
	SpeedupW1       float64              `json:"speedup_grouped_w1_vs_per_body"`
	SpeedupWN       float64              `json:"speedup_grouped_wn_vs_per_body"`
	RmsDiffW1       float64              `json:"rms_acc_diff_grouped_vs_per_body"`
	MaxPotDiffRel   float64              `json:"max_rel_pot_diff_grouped_vs_per_body"`
	NsPerInterRatio float64              `json:"ns_per_interaction_per_body_over_grouped_w1"`
	Distributed     *groupDistributed    `json:"distributed,omitempty"`
	Metrics         *obs.MetricsSnapshot `json:"metrics,omitempty"`
	Analysis        *analysis.Summary    `json:"analysis,omitempty"`
	Treebuild       *treebuildReport     `json:"treebuild,omitempty"`
	Kernels         *kernelsReport       `json:"kernels,omitempty"`
	Live            *live.Dump           `json:"live,omitempty"`
	Provenance      *ledger.Provenance   `json:"provenance,omitempty"`
}

// groupBench times the per-body treewalk against the bucket-grouped one on a
// Plummer sphere and records the comparison in BENCH_treecode.json.
func groupBench() {
	n := 32768
	if *quick {
		n = 4096
	}
	theta, eps, maxLeaf := 0.7, 0.01, 16
	rng := rand.New(rand.NewSource(1))
	ics := core.PlummerSphere(rng, n, 1.0)
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i, b := range ics {
		pos[i], mass[i] = b.Pos, b.Mass
	}
	tr, err := htree.Build(pos, mass, htree.Options{MaxLeaf: maxLeaf})
	if err != nil {
		fmt.Fprintln(os.Stderr, "group: tree build:", err)
		os.Exit(1)
	}
	tr.SetObs(runObs)

	// best-of-3 wall time for each engine, all on the default libm kernels —
	// the path every production run and BENCHMARK.json workload takes.
	const reps = 3
	time3 := func(f func() (acc []vec.V3, pot []float64, inter int64)) (float64, []vec.V3, []float64, int64) {
		best := math.Inf(1)
		var acc []vec.V3
		var pot []float64
		var inter int64
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			acc, pot, inter = f()
			if dt := time.Since(t0).Seconds(); dt < best {
				best = dt
			}
		}
		return best, acc, pot, inter
	}

	tP, accP, potP, interP := time3(func() ([]vec.V3, []float64, int64) {
		a, p, st := tr.AccelAll(theta, eps, false)
		return a, p, int64(st.CellInteractions + st.BodyInteractions)
	})
	t1, acc1, pot1, inter1 := time3(func() ([]vec.V3, []float64, int64) {
		a, p, st := tr.AccelAllGrouped(theta, eps, false, gravity.Float64, 1)
		return a, p, int64(st.CellInteractions + st.BodyInteractions)
	})
	nw := runtime.GOMAXPROCS(0)
	tN, accN, potN, interN := time3(func() ([]vec.V3, []float64, int64) {
		a, p, st := tr.AccelAllGrouped(theta, eps, false, gravity.Float64, nw)
		return a, p, int64(st.CellInteractions + st.BodyInteractions)
	})

	// accuracy cross-checks
	var sum2, ref2, maxPot float64
	for i := range accP {
		sum2 += acc1[i].Sub(accP[i]).Norm2()
		ref2 += accP[i].Norm2()
		if d := math.Abs(pot1[i]-potP[i]) / (1 + math.Abs(potP[i])); d > maxPot {
			maxPot = d
		}
	}
	rms := math.Sqrt(sum2 / ref2)
	for i := range accN {
		if accN[i] != acc1[i] || potN[i] != pot1[i] {
			fmt.Fprintf(os.Stderr, "group: workers=%d result differs from workers=1 at body %d\n", nw, i)
			os.Exit(1)
		}
	}

	mk := func(engine string, workers int, sec float64, inter int64) groupResult {
		return groupResult{
			Engine: engine, Workers: workers, Seconds: sec,
			NsPerBody:    sec / float64(n) * 1e9,
			NsPerInter:   sec / float64(inter) * 1e9,
			Interactions: inter,
			InterPerSec:  float64(inter) / sec,
		}
	}
	// Distributed virtual-time run over the same particle set: this is what
	// populates the per-rank compute/wait breakdown (and, with -trace, the
	// per-rank trace rows) in the embedded metrics snapshot.
	procs, steps, dw := 8, 2, 4
	if *quick {
		procs, steps = 4, 1
	}
	cl := ssCluster()
	runObs.EnableEvents()
	dres := core.Run(core.RunConfig{
		Cluster: cl, Procs: procs, Steps: steps,
		Opt: core.Options{Theta: theta, Eps: eps, DT: 1e-3, MaxLeaf: maxLeaf, Workers: dw},
	}, ics)
	// Trace analysis of the distributed run. Under `ssbench all` the shared
	// observer has already seen other runs, whose events would mix into this
	// one's timeline; detect that by checking the analysis makespan against
	// this run's virtual elapsed time and skip the summary when they differ.
	var asum *analysis.Summary
	if arep, err := analysis.Analyze(runObs, cl, analysis.Options{}); err == nil &&
		math.Abs(arep.MakespanSec-dres.ElapsedVirtual) <= 1e-9*dres.ElapsedVirtual {
		asum = arep.Summary()
	}
	snap := runObs.Snapshot()
	util := 0.0
	if wall, wk := snap.Counters["core.pool.wall_ns"], snap.Gauges["core.pool.workers"]; wall > 0 && wk > 0 {
		util = float64(snap.Counters["core.pool.busy_ns"]) / (float64(wall) * wk)
	}

	rep := groupReport{
		SchemaVersion: 3,
		N:             n, Theta: theta, Eps: eps, MaxLeaf: maxLeaf, GOMAXPROCS: nw,
		Analysis: asum,
		Distributed: &groupDistributed{
			Procs: procs, Workers: dw, Steps: dres.Steps,
			ElapsedVirtualSec: dres.ElapsedVirtual, Gflops: dres.Gflops,
			MaxImbalance: dres.MaxImbalance, WorkerUtilization: util,
		},
		Metrics: &snap,
		Results: []groupResult{
			mk("per-body", 1, tP, interP),
			mk("grouped", 1, t1, inter1),
			mk("grouped", nw, tN, interN),
		},
		SpeedupW1:       tP / t1,
		SpeedupWN:       tP / tN,
		RmsDiffW1:       rms,
		MaxPotDiffRel:   maxPot,
		NsPerInterRatio: (tP / float64(interP)) / (t1 / float64(inter1)),
	}
	if d := liveDump(); d != nil {
		rep.Live = d
		rep.SchemaVersion = 6
	}
	cfg := ledgerConfig("group", n, procs, steps, dw, "grouped", 1)
	stampProvenance(&rep, cfg)

	fmt.Printf("bucket-grouped treewalk, Plummer N=%d, theta=%.2f, leaf=%d (best of %d)\n", n, theta, maxLeaf, reps)
	fmt.Printf("%-10s %8s %10s %10s %10s %14s\n", "engine", "workers", "time", "ns/body", "ns/inter", "inter/s")
	for _, r := range rep.Results {
		fmt.Printf("%-10s %8d %9.3fs %10.1f %10.2f %14.3e\n",
			r.Engine, r.Workers, r.Seconds, r.NsPerBody, r.NsPerInter, r.InterPerSec)
	}
	fmt.Printf("speedup grouped/per-body: %.2fx (1 worker), %.2fx (%d workers)\n", rep.SpeedupW1, rep.SpeedupWN, nw)
	fmt.Printf("ns/interaction ratio (per-body / grouped w1): %.2fx\n", rep.NsPerInterRatio)
	fmt.Printf("accuracy: rms acc diff %.2e, max rel pot diff %.2e; workers=%d bit-identical to workers=1\n",
		rep.RmsDiffW1, rep.MaxPotDiffRel, nw)
	fmt.Printf("distributed run: %d ranks x %d workers, %d steps, virtual %.2f s, %.1f Gflop/s, imbalance %.2f, pool util %.0f%%\n",
		procs, dw, dres.Steps, dres.ElapsedVirtual, dres.Gflops, dres.MaxImbalance, 100*util)
	if asum != nil {
		fmt.Printf("analysis: critical path %.3fs over %d hops, parallel efficiency %.0f%%, msg latency p99 %.3gs\n",
			asum.CriticalPathSec, asum.CriticalPathHops, 100*asum.ParallelEfficiency, asum.MsgLatencyP99Sec)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "group: marshal:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*benchOut, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "group: write:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *benchOut)
	ledgerAppend(cfg, filepath.Base(*benchOut), *benchOut)
}
