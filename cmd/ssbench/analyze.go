package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"spacesim/internal/core"
	"spacesim/internal/machine"
	"spacesim/internal/netsim"
	"spacesim/internal/obs"
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
	rep, res, cl := analyzeRun(runObs, n, steps)
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
		ledgerAppend(cfg, filepath.Base(*analysisOut), *analysisOut, rep.Headline())
	}
}

// analyzeRun runs n Plummer bodies for steps steps on the slice under o and
// analyzes the trace. The virtual schedule, and so the report, is the same
// from run to run at any pool width.
func analyzeRun(o *obs.Obs, n, steps int) (*analysis.Report, core.Result, machine.Cluster) {
	o.EnableEvents()
	cl := analyzeCluster().WithObs(o)
	rng := rand.New(rand.NewSource(1))
	ics := core.PlummerSphere(rng, n, 1.0)
	res := core.Run(core.RunConfig{
		Cluster: cl, Procs: 8, Steps: steps,
		Opt: core.Options{Theta: 0.7, Eps: 0.01, DT: 1e-3, MaxLeaf: 16, Workers: 4},
	}, ics)
	rep, err := analysis.Analyze(o, cl)
	if err != nil {
		die(1, "analyze:", err)
	}
	return rep, res, cl
}

// diffCmd is the run-to-run perf gate (see runDiff).
func diffCmd(args []string) {
	if code := runDiff(os.Stdout, args); code != 0 {
		os.Exit(code)
	}
}

// runDiff is `ssbench diff OLD.json NEW.json` writing to w; it returns the
// exit code. Both files must be analysis reports run from one config
// digest (exit 2 otherwise). analysis.Gate judges NEW's headline metrics
// against a one-run baseline of OLD's with ledger.GateAgainst, the judge of
// `ssbench trend -gate`; with one baseline run the verdict is the
// ledger.Gates band alone. Exit 1 on a regression.
func runDiff(w io.Writer, args []string) int {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	fs.Usage = func() { fmt.Fprintln(fs.Output(), "usage: ssbench diff OLD.json NEW.json") }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	var reps [2]*analysis.Report
	for i, path := range fs.Args() {
		rep, err := analysis.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "diff:", err)
			return 2
		}
		reps[i] = rep
	}
	trends, err := analysis.Gate(reps[0], reps[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "diff:", err)
		return 2
	}
	ledger.WriteTrends(w, trends)
	if ledger.AnyRegression(trends) {
		fmt.Fprintln(w, "diff: FAIL (regression against OLD)")
		return 1
	}
	fmt.Fprintln(w, "diff: OK")
	return 0
}
