package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"spacesim/internal/core"
	"spacesim/internal/machine"
	"spacesim/internal/netsim"
	"spacesim/internal/obs/analysis"
	"spacesim/internal/obs/ledger"
)

var analysisOut = flag.String("analysis-out", "ANALYSIS.json", "output path for the analyze experiment's report")

// analyzeCluster is a deliberately small two-module slice of the Space
// Simulator fabric: four ports per module, one module per chassis, so an
// 8-rank run exercises the NICs, both module backplanes, and the
// inter-switch trunk.
func analyzeCluster() machine.Cluster {
	topo := netsim.Topology{
		Nodes:           8,
		PortsPerModule:  4,
		ModulesSwitchA:  1,
		ModuleUplinkBps: 8e9,
		TrunkBps:        8e9,
		NICBps:          1e9,
		Efficiency:      0.65,
	}
	return machine.Cluster{
		Name:  "Space Simulator (2-module slice)",
		Nodes: 8,
		Node:  machine.SpaceSimulatorNode,
		Net:   netsim.MustNew(topo, netsim.ProfileLAM),
	}
}

// analyzeBench runs the treecode on the 2-module 8-rank slice with event
// retention on, then runs the trace analysis: critical path, per-phase
// efficiency, latency percentiles, and per-link utilization.
func analyzeBench() {
	n, steps := 8192, 2
	if *quick {
		n, steps = 2048, 1
	}
	runObs.EnableEvents()
	cl := analyzeCluster().WithObs(runObs)

	rng := rand.New(rand.NewSource(1))
	ics := core.PlummerSphere(rng, n, 1.0)
	res := core.Run(core.RunConfig{
		Cluster: cl, Procs: 8, Steps: steps,
		Opt: core.Options{Theta: 0.7, Eps: 0.01, DT: 1e-3, MaxLeaf: 16, Workers: 4},
	}, ics)

	rep, err := analysis.Analyze(runObs, cl, analysis.Options{})
	if err != nil {
		die(1, "analyze:", err)
	}
	cfg := ledgerConfig("analyze", n, 8, steps, 4, 1)
	if rep.Provenance != nil {
		rep.Provenance.ConfigDigest = cfg.Digest()
	}
	fmt.Printf("treecode on %s: N=%d, 8 ranks, %d steps, virtual %.3f s, %.1f Gflop/s\n\n",
		cl.Name, n, res.Steps, res.ElapsedVirtual, res.Gflops)
	fmt.Print(rep.Render())
	if *analysisOut != "" {
		if err := rep.WriteJSON(*analysisOut); err != nil {
			die(1, "analyze: write:", err)
		}
		fmt.Printf("\nwrote %s\n", *analysisOut)
		ledgerAppend(cfg, filepath.Base(*analysisOut), *analysisOut)
	}
}

// diffCmd compares two ANALYSIS.json files and exits nonzero when the new
// run regressed past the thresholds. This is the CI perf gate.
func diffCmd(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	th := analysis.DefaultThresholds()
	fs.Float64Var(&th.MakespanFrac, "makespan-frac", th.MakespanFrac,
		"allowed relative virtual-makespan increase")
	fs.Float64Var(&th.CategoryFrac, "category-frac", th.CategoryFrac,
		"allowed relative increase per critical-path category")
	fs.Float64Var(&th.LatencyP99Frac, "latency-p99-frac", th.LatencyP99Frac,
		"allowed relative message-latency p99 increase")
	fs.Float64Var(&th.EfficiencyDrop, "efficiency-drop", th.EfficiencyDrop,
		"allowed absolute parallel-efficiency drop")
	baseline := fs.Bool("baseline", false,
		"gate NEW.json against its ledger history instead of an OLD.json file")
	ledgerFlag := fs.String("ledger", *ledgerDir, "ledger directory for -baseline")
	lastK := fs.Int("last", 10, "baseline window: most recent K comparable runs")
	allowCross := fs.Bool("allow-cross-machine", false,
		"compare runs from different hosts/modeled machines anyway (normally refused)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ssbench diff [flags] OLD.json NEW.json")
		fmt.Fprintln(os.Stderr, "       ssbench diff -baseline [flags] NEW.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	th.AllowCrossMachine = *allowCross
	if *allowCross {
		fmt.Fprintln(os.Stderr, "diff: warning: -allow-cross-machine compares runs from different machines; deltas may be configuration drift, not regressions")
	}
	if *baseline {
		if fs.NArg() != 1 {
			fs.Usage()
			os.Exit(2)
		}
		diffBaseline(fs.Arg(0), *ledgerFlag, *lastK, *allowCross)
		return
	}
	if fs.NArg() != 2 {
		fs.Usage()
		os.Exit(2)
	}
	oldR, err := analysis.ReadFile(fs.Arg(0))
	if err != nil {
		die(2, "diff:", err)
	}
	newR, err := analysis.ReadFile(fs.Arg(1))
	if err != nil {
		die(2, "diff:", err)
	}
	d := analysis.Diff(oldR, newR, th)
	fmt.Print(d.Render())
	if !d.OK() {
		os.Exit(1)
	}
}

// diffBaseline is the ledger arm of the diff gate: it keys the NEW artifact
// back to its comparable ledger history (same config digest, same host
// unless crossed) and judges each headline metric against the median/MAD of
// the last K runs. Exit 1 on regression; an empty baseline passes with a
// note, so the gate is safe to enable before any history exists.
func diffBaseline(newPath, ledgerPath string, lastK int, allowCross bool) {
	data, err := os.ReadFile(newPath)
	if err != nil {
		die(2, "diff:", err)
	}
	prov, ok := ledger.ExtractProvenance(data)
	if !ok || prov.ConfigDigest == "" {
		die(2, fmt.Sprintf("diff: %s carries no provenance config digest; regenerate it with a current ssbench", newPath))
	}
	st := openLedgerAt(ledgerPath)
	if st == nil {
		fmt.Println("diff: ledger disabled or unavailable; no baseline to gate against")
		return
	}
	recs, err := st.Records()
	if err != nil {
		die(2, "diff:", err)
	}
	var base []ledger.Record
	if allowCross {
		for _, r := range recs {
			if r.ConfigDigest == prov.ConfigDigest {
				base = append(base, r)
			}
		}
	} else {
		base = ledger.Comparable(recs, prov.ConfigDigest, ledger.Prov().HostKey())
	}
	// NEW may itself be the most recent ledgered artifact (the smoke gates a
	// file the run just recorded): drop the newest record holding these exact
	// bytes, keeping any earlier identical results as legitimate baseline.
	newDigest := ledger.BlobDigest(data)
	for i := len(base) - 1; i >= 0; i-- {
		if hasArtifactDigest(base[i], newDigest) {
			base = append(base[:i], base[i+1:]...)
			break
		}
	}
	if len(base) == 0 {
		fmt.Printf("diff: no comparable runs for config %.12s in %s; nothing to gate against\n",
			prov.ConfigDigest, st.Dir)
		return
	}
	trends := ledger.GateAgainst(base, ledger.ExtractMetrics(data), lastK)
	printTrends(trends)
	if ledger.AnyRegression(trends) {
		fmt.Printf("diff: FAIL (baseline of %d comparable runs)\n", len(base))
		os.Exit(1)
	}
	fmt.Printf("diff: OK vs baseline of %d comparable runs\n", len(base))
}

// hasArtifactDigest reports whether rec stored an artifact with digest.
func hasArtifactDigest(rec ledger.Record, digest string) bool {
	for _, d := range rec.Artifacts {
		if d == digest {
			return true
		}
	}
	return false
}
