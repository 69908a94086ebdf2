// Command ssbench regenerates every table and figure of the paper's
// evaluation. Each subcommand prints the paper's measured values next to
// this reproduction's modeled or simulated ones.
//
// Usage:
//
//	ssbench <experiment> [flags]
//
// Experiments: table1 table2 table3 table4 table5 table6 table7 fig2 fig3
// fig4 fig5 fig6 fig7 fig8 group kernels treebuild switch spec reliability
// moore all
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"spacesim/internal/cluster"
	"spacesim/internal/core"
	"spacesim/internal/cosmo"
	"spacesim/internal/hpl"
	"spacesim/internal/key"
	"spacesim/internal/machine"
	"spacesim/internal/netsim"
	"spacesim/internal/npb"
	"spacesim/internal/obs"
	"spacesim/internal/obs/ledger"
	"spacesim/internal/obs/live"
	"spacesim/internal/pario"
	"spacesim/internal/perfmodel"
	"spacesim/internal/reliability"
	"spacesim/internal/sph"
	"spacesim/internal/vec"
)

var (
	quick       = flag.Bool("quick", false, "shrink the simulated workloads for a fast pass")
	traceOut    = flag.String("trace", "", "write a Chrome trace_event JSON file of the run (enables the tracer)")
	metricsOut  = flag.String("metrics", "", "write a metrics snapshot JSON file of the run")
	cpuProfile  = flag.String("cpuprofile", "", "write a host-side CPU profile to this file")
	memProfile  = flag.String("memprofile", "", "write a host-side heap profile to this file on exit")
	httpAddr    = flag.String("http", "", "serve live telemetry (/metrics, /progress.json, /debug/pprof/) on this address during the run")
	sampleEvery = flag.Duration("sample-every", 250*time.Millisecond, "live-telemetry sampling period (with -http, or to embed a live block in the bench record)")
)

// runObs observes every cluster run of the invocation (see ssCluster); the
// tracer is attached only when -trace is set.
var runObs *obs.Obs

// liveSampler/liveServer are non-nil while -http live telemetry is on; the
// sampler snapshots runObs and the bench record embeds its final dump.
var (
	liveSampler *live.Sampler
	liveServer  *live.Server
)

// ownFlagCmds are the subcommands that own their argument parsing
// (positional file arguments or private flag sets), so the global
// after-the-experiment-name re-parse must leave their arguments alone.
var ownFlagCmds = map[string]bool{"diff": true, "faultsweep": true, "trend": true, "report": true}

// parseInvocation parses an ssbench argument vector (without the program
// name) against fs. Global flags are accepted both before and after the
// experiment name — `ssbench -http :0 group` and `ssbench group -http :0`
// are equivalent — except for ownFlagCmds, whose trailing arguments are
// returned unparsed. Returns the experiment name ("" when absent) and the
// positional arguments that follow it.
func parseInvocation(fs *flag.FlagSet, argv []string) (string, []string, error) {
	if err := fs.Parse(argv); err != nil {
		return "", nil, err
	}
	args := fs.Args()
	if len(args) == 0 {
		return "", nil, nil
	}
	cmd := args[0]
	if ownFlagCmds[cmd] {
		return cmd, args[1:], nil
	}
	if err := fs.Parse(args[1:]); err != nil {
		return cmd, nil, err
	}
	return cmd, fs.Args(), nil
}

func main() {
	cmd, rest, err := parseInvocation(flag.CommandLine, os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	if cmd == "" {
		usage()
		os.Exit(2)
	}
	switch cmd {
	case "diff":
		diffCmd(rest)
		return
	case "faultsweep":
		faultsweepCmd(rest)
		return
	case "trend":
		trendCmd(rest)
		return
	case "report":
		reportCmd(rest)
		return
	}
	runObs = obs.New(*traceOut != "")
	ledger.Prov().Stamp(runObs.Reg)
	startLive()
	defer writeObs()
	defer stopProfiles()
	defer stopLive()
	startProfiles()
	cmds := map[string]func(){
		"table1":      table1,
		"table2":      table2,
		"table3":      func() { npbTable("C", 64, []npb.Benchmark{npb.BT, npb.SP, npb.LU, npb.CG, npb.FT, npb.IS}) },
		"table4":      func() { npbTable("D", 256, []npb.Benchmark{npb.BT, npb.SP, npb.LU, npb.CG, npb.FT}) },
		"table5":      table5,
		"table6":      table6,
		"table7":      table7,
		"fig2":        fig2,
		"fig3":        fig3,
		"fig4":        func() { npbScaling("D", []int{16, 64, 256}) },
		"fig5":        func() { npbScaling("C", []int{4, 16, 64, 256}) },
		"fig6":        fig6,
		"fig7":        fig7,
		"fig8":        fig8,
		"group":       groupBench,
		"kernels":     kernelsBench,
		"treebuild":   treebuildBench,
		"analyze":     analyzeBench,
		"switch":      switchBackplane,
		"spec":        spec,
		"reliability": reliabilityReport,
		"moore":       moore,
	}
	if cmd == "all" {
		names := make([]string, 0, len(cmds))
		for n := range cmds {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			header(n)
			cmds[n]()
		}
		return
	}
	fn, ok := cmds[cmd]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", cmd)
		usage()
		os.Exit(2)
	}
	fn()
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ssbench [-quick] [-ledger DIR] [-trace FILE] [-metrics FILE] [-http ADDR] [-sample-every DUR] [-cpuprofile FILE] [-memprofile FILE] <table1|table2|...|fig8|group|kernels|treebuild|analyze|diff|faultsweep|trend|report|switch|spec|reliability|moore|all>")
	fmt.Fprintln(os.Stderr, "       (global flags are accepted before or after the experiment name)")
	fmt.Fprintln(os.Stderr, "       ssbench diff [flags] OLD.json NEW.json   (ANALYSIS.json or BENCH_treecode.json pairs)")
	fmt.Fprintln(os.Stderr, "       ssbench diff -baseline [flags] NEW.json  (gate NEW against its ledger history)")
	fmt.Fprintln(os.Stderr, "       ssbench trend [-ledger DIR] [-config DIGEST] [-last K] [-gate]   (per-metric history vs median/MAD baseline)")
	fmt.Fprintln(os.Stderr, "       ssbench report [-ledger DIR] -html FILE   (static HTML dashboard of the ledger)")
}

// startLive starts the live-telemetry sampler over runObs and, when -http
// is set, the exposition server. Without -http no sampler runs and the
// bench record carries no live block.
func startLive() {
	if *httpAddr == "" {
		return
	}
	liveSampler = live.NewSampler(runObs, live.Config{Every: *sampleEvery})
	liveSampler.Start()
	var mounts []live.Mount
	if st := openLedger(); st != nil {
		mounts = append(mounts, live.Mount{Prefix: "/runs", Handler: st.Handler()})
	}
	srv, err := live.Serve(*httpAddr, liveSampler, mounts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "http:", err)
		os.Exit(1)
	}
	liveServer = srv
	fmt.Printf("live telemetry on http://%s/ (metrics, progress.json, runs, debug/pprof)\n", srv.Addr())
}

// stopLive tears the live-telemetry pipeline down (final sample included).
func stopLive() {
	liveSampler.Stop()
	liveServer.Close()
}

// liveDump takes a final sample and returns the sampler's retained series,
// or nil when live telemetry is off — callers embed it as a bench-record
// `live` block.
func liveDump() *live.Dump {
	if liveSampler == nil {
		return nil
	}
	liveSampler.SampleNow()
	return liveSampler.Dump()
}

// startProfiles begins host-side pprof capture when requested.
func startProfiles() {
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
	}
}

// stopProfiles flushes the pprof outputs.
func stopProfiles() {
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			os.Exit(1)
		}
	}
}

// writeObs flushes the run's trace and metrics files, if requested.
func writeObs() {
	if *metricsOut != "" {
		if err := runObs.WriteMetricsFile(*metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "metrics:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote metrics to %s\n", *metricsOut)
	}
	if *traceOut != "" {
		if err := runObs.WriteTraceFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote trace to %s\n", *traceOut)
	}
}

func header(s string) {
	fmt.Printf("\n=== %s %s\n", s, strings.Repeat("=", 60-len(s)))
}

func ssCluster() machine.Cluster {
	return machine.SpaceSimulator(netsim.ProfileLAM).WithObs(runObs)
}

func table1() {
	b := cluster.SpaceSimulatorBOM()
	fmt.Print(b.Render())
	usd, frac := b.NetworkShare()
	fmt.Printf("Network per node: $%.0f (%.0f%%)   [paper: $728, 44%%]\n", usd, frac*100)
}

func table7() {
	fmt.Print(cluster.LokiBOM().Render())
}

func table2() {
	fmt.Printf("%-10s %10s %17s %17s %17s\n", "", "Normal", "Slow mem", "Slow CPU", "Overclock")
	for _, w := range perfmodel.Table2Workloads() {
		fmt.Println(perfmodel.Row(w))
		p := perfmodel.Table2Paper[w.Name]
		fmt.Printf("%-10s %10s   paper: (%.3f)        (%.3f)        (%.3f)\n", "", "", p[0], p[1], p[2])
	}
}

func table5() {
	fmt.Printf("%-28s %10s %10s %10s %10s\n", "Processor", "libm", "paper", "Karp", "paper")
	for i, c := range machine.Table5CPUs {
		fmt.Printf("%-28s %10.1f %10.1f %10.1f %10.1f\n",
			c.Name, c.KernelMflops(false), machine.Table5Paper[i][0],
			c.KernelMflops(true), machine.Table5Paper[i][1])
	}
}

func table6() {
	fmt.Printf("%-6s %-18s %6s %10s %10s %12s %12s\n",
		"Year", "Machine", "Procs", "Gflop/s", "paper", "Mflops/proc", "paper")
	for _, m := range machine.Table6Machines {
		fmt.Printf("%-6d %-18s %6d %10.2f %10.2f %12.1f %12.1f\n",
			m.Year, m.Name, m.Procs, m.Gflops(), m.PaperGflops,
			m.MflopsPerProc(), m.PaperMflopsPerProc)
	}
	// also run the real virtual-time treecode at reduced scale
	n := 20000
	procs := 32
	if *quick {
		n, procs = 4000, 8
	}
	rng := rand.New(rand.NewSource(1))
	ics := core.ColdSphere(rng, n, 1.0)
	res := core.Run(core.RunConfig{
		Cluster: ssCluster(), Procs: procs, Steps: 1,
		Opt: core.Options{Theta: 0.7, Eps: 0.01, DT: 1e-3},
	}, ics)
	fmt.Printf("\nvirtual-time treecode (cold sphere, N=%d, %d procs): %.1f Mflops/proc, imbalance %.2f\n",
		n, procs, res.MflopsPerProc, res.MaxImbalance)
}

func fig2() {
	fmt.Printf("%-14s", "bytes")
	for _, p := range netsim.AllProfiles() {
		fmt.Printf(" %14s", p.Name)
	}
	fmt.Println()
	for _, sz := range []int64{1, 16, 256, 4096, 65536, 1 << 20, 8 << 20} {
		fmt.Printf("%-14d", sz)
		for _, p := range netsim.AllProfiles() {
			fmt.Printf(" %14.1f", p.Bandwidth(sz)/1e6)
		}
		fmt.Println(" Mb/s")
	}
	fmt.Println("paper: TCP peaks at 779 Mb/s; latencies 79 (TCP), 83 (LAM), 87 (mpich) us")
}

func switchBackplane() {
	net := netsim.MustNew(netsim.SpaceSimulatorTopology(), netsim.ProfileTCP)
	flows := net.Topo.CrossModuleFlows(0, 1)
	fmt.Printf("16->16 cross-module aggregate: %.0f Mb/s   [paper: ~6000]\n",
		net.AggregateBandwidth(flows)/1e6)
	for _, dim := range []int{0, 2, 4, 6, 8} {
		f := netsim.HypercubePairs(294, dim)
		fmt.Printf("hypercube dim %d (%3d flows): %8.0f Mb/s aggregate\n",
			dim, len(f), net.AggregateBandwidth(f)/1e6)
	}
}

func fig3() {
	oct, apr := hpl.October2002(), hpl.April2003()
	fmt.Printf("%-36s model %8.1f Gflop/s   paper 665.1\n", oct.Name, hpl.ModelGflops(oct))
	fmt.Printf("%-36s model %8.1f Gflop/s   paper 757.1\n", apr.Name, hpl.ModelGflops(apr))
	c := ssCluster()
	fmt.Printf("price/performance at April rate: $%.3f/Mflops  [paper: $0.639]\n",
		c.DollarsPerMflops(hpl.ModelGflops(apr)*1e9))
	// real distributed LU at small scale
	p, n, nb := 8, 192, 16
	if *quick {
		p, n = 4, 96
	}
	res, err := hpl.RunParallel(c, p, n, nb, 7)
	if err != nil {
		fmt.Println("parallel LU:", err)
		return
	}
	fmt.Printf("distributed LU (N=%d, %d ranks): residual %.2f (pass<16), %.2f virtual Gflop/s\n",
		n, p, res.Residual, res.Gflops)
}

func npbTable(class string, procs int, benches []npb.Benchmark) {
	paper := map[string]map[npb.Benchmark][2]float64{
		"C": {npb.BT: {17032, 22540}, npb.SP: {7822, 17775}, npb.LU: {27942, 40916},
			npb.CG: {3291, 4129}, npb.FT: {9860, 7275}, npb.IS: {232, 286}},
		"D": {npb.BT: {63044, 80418}, npb.SP: {29348, 55327}, npb.LU: {81472, 135650},
			npb.CG: {4913, 10149}, npb.FT: {21995, 30100}},
	}
	if *quick && procs > 64 {
		procs = 64
	}
	fmt.Printf("%-4s %12s %12s %12s   (%d procs, class %s)\n", "", "model SS", "paper SS", "paper Q", procs, class)
	for _, b := range benches {
		res, err := npb.Run(b, ssCluster(), procs, class)
		if err != nil {
			fmt.Printf("%-4s error: %v\n", b, err)
			continue
		}
		pp := paper[class][b]
		status := "ok"
		if !res.Verified {
			status = "VERIFY-FAIL " + res.VerifyDetail
		}
		fmt.Printf("%-4s %12.0f %12.0f %12.0f   %s\n", b, res.MopsTotal, pp[0], pp[1], status)
	}
}

func npbScaling(class string, procs []int) {
	benches := []npb.Benchmark{npb.BT, npb.SP, npb.LU, npb.CG, npb.FT}
	if *quick {
		procs = procs[:len(procs)-1]
	}
	fmt.Printf("per-processor Mop/s (class %s)\n%-4s", class, "")
	for _, p := range procs {
		fmt.Printf(" %10d", p)
	}
	fmt.Println(" procs")
	for _, b := range benches {
		fmt.Printf("%-4s", b)
		for _, p := range procs {
			res, err := npb.Run(b, ssCluster(), p, class)
			if err != nil {
				fmt.Printf(" %10s", "err")
				continue
			}
			fmt.Printf(" %10.1f", res.MopsPerProc)
		}
		fmt.Println()
	}
}

func fig6() {
	// Render the Morton curve through a centrally condensed 2-D particle
	// set as ASCII, plus the induced tree cell counts per level.
	rng := rand.New(rand.NewSource(2))
	const g = 32
	occupied := map[[2]int]rune{}
	type pt struct {
		k    key.K
		x, y int
	}
	var pts []pt
	for i := 0; i < 300; i++ {
		r := rng.ExpFloat64() * 0.15
		th := 2 * math.Pi * rng.Float64()
		x, y := 0.5+r*cosApprox(th), 0.5+r*sinApprox(th)
		if x < 0 || x >= 1 || y < 0 || y >= 1 {
			continue
		}
		k := key.FromPosition(vec.V3{x, y, 0.5}, vec.V3{0, 0, 0}, 1)
		pts = append(pts, pt{k, int(x * g), int(y * g)})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].k < pts[j].k })
	for i, p := range pts {
		occupied[[2]int{p.x, p.y}] = rune('a' + i%26)
	}
	for y := g - 1; y >= 0; y-- {
		row := make([]rune, g)
		for x := 0; x < g; x++ {
			if r, ok := occupied[[2]int{x, y}]; ok {
				row[x] = r
			} else {
				row[x] = '.'
			}
		}
		fmt.Println(string(row))
	}
	fmt.Println("(letters advance along the Morton key order: nearby cells share letters)")
}

func fig7() {
	m := pario.Fig7Run()
	fmt.Printf("production-run model: %d procs, %.0f h, %.1f TB saved\n",
		m.Procs, m.HoursElapsed, m.BytesSaved/1e12)
	fmt.Printf("  avg I/O rate %.0f MB/s [paper 417], peak %.1f GB/s [paper ~7], sustained %.0f Gflop/s [paper 112]\n",
		m.AvgIORate()/1e6, m.PeakIORate()/1e9, m.AvgFlops()/1e9)
	// scaled-down end-to-end pipeline: ICs -> evolve -> halos -> xi(r)
	gridN := 16
	if *quick {
		gridN = 8
	}
	c := cosmo.EdS()
	ics := cosmo.GenerateICs(c, cosmo.ICOptions{GridN: gridN, BoxMpch: 32, AStart: 0.15, Seed: 9})
	fmt.Printf("ICs: %d particles, sigma8=%.2f box=32 Mpc/h\n", len(ics.Bodies), c.Sigma8)
	res := core.Run(core.RunConfig{
		Cluster: ssCluster(), Procs: 8, Steps: 6,
		Opt:          core.Options{Theta: 0.7, Eps: 0.3, DT: 0.6},
		GatherBodies: true,
	}, ics.Bodies)
	pos := make([]vec.V3, len(res.Bodies))
	mass := make([]float64, len(res.Bodies))
	for i, b := range res.Bodies {
		pos[i], mass[i] = b.Pos, b.Mass
	}
	link := 0.2 * 32 / float64(gridN)
	halos := cosmo.FoFGroups(pos, mass, link, 10)
	fmt.Printf("evolved %d steps (virtual %.1f s, %.1f modeled Gflop/s); %d halos with >=10 particles\n",
		res.Steps, res.ElapsedVirtual, res.Gflops, len(halos))
	r, xi := cosmo.TwoPointCorrelation(pos, 32, 0.5, 8, 5)
	for i := range r {
		fmt.Printf("  xi(%.2f Mpc/h) = %+.2f\n", r[i], xi[i])
	}
}

func fig8() {
	n := 1500
	if *quick {
		n = 600
	}
	s := sph.NewRotatingCollapse(sph.RotatingCollapseOptions{
		N: n, Omega: 0.3, PressureDeficit: 0.85, Seed: 3,
	})
	s.SetObs(runObs)
	steps, bounced := s.RunUntilBounce(300)
	d := s.Diag()
	fmt.Printf("rotating collapse: N=%d, bounce=%v after %d steps, maxRho=%.2f (nuc %.2f)\n",
		n, bounced, steps, d.MaxRho, s.Cfg.EOS.RhoNuc)
	prof := s.AngularMomentumByAngle(6)
	fmt.Println("specific angular momentum |j_z| by polar angle (pole -> equator):")
	for b, j := range prof {
		fmt.Printf("  %2d-%2d deg: %.4g\n", b*15, (b+1)*15, j)
	}
	fmt.Printf("equator/pole ratio: %.0fx   [paper: ~2 orders of magnitude]\n", prof[5]/prof[0])
	fmt.Printf("neutrino energy: %.3g (radiated from the hot core via FLD)\n", d.Neutrino)
}

func spec() {
	r := perfmodel.SPEC()
	fmt.Printf("SPECfp2000 %.0f, SPECint2000 %.0f (node $%.0f): $%.2f/SPECfp [paper $1.20]\n",
		r.SPECfp, r.SPECint, r.NodeCostUSD, r.DollarsPerSPECfp)
	fmt.Printf("%s at SPECfp %.0f must cost < $%.0f to match [paper ~$2500]\n",
		r.FastestSystem, r.FastestSPECfp, r.BreakEvenPriceUSD)
	fmt.Printf("July 2003 node price: $%.2f/SPECfp [paper: better than $1.00]\n", r.JulyDollarsPerSPECf)
}

func reliabilityReport() {
	instE, opE := reliability.ExpectedCounts(294, 9)
	fmt.Println("expected failures (calibrated rates) vs paper:")
	fmt.Println(" install:")
	for c, want := range reliability.PaperObserved.Install {
		fmt.Printf("   %-18s %.1f  [paper %d]\n", c, instE[c], want)
	}
	fmt.Println(" nine months:")
	for c, want := range reliability.PaperObserved.NineMonths {
		fmt.Printf("   %-18s %.1f  [paper %d]\n", c, opE[c], want)
	}
	sim := reliability.Simulate(reliability.Options{Seed: 1})
	fmt.Printf("one Monte-Carlo draw: %d events; SMART predicted %.0f%% of disk failures\n",
		len(sim.Events), 100*sim.SMARTPredictedFraction())
	fmt.Printf("availability: %.3f%% (PDU + 2 power outages)\n",
		100*reliability.Availability(9, reliability.PaperDowntime()))
}

func moore() {
	c := cluster.Components(cluster.LokiBOM(), cluster.SpaceSimulatorBOM(), 6)
	fmt.Printf("disk: $%.0f/GB (1996) -> $%.2f/GB (2002): %.0fx = %.1fx beyond Moore [paper ~7x]\n",
		c.DiskUSDPerGBOld, c.DiskUSDPerGBNew, c.DiskRatio, c.DiskVsMoore)
	fmt.Printf("RAM:  $%.2f/MB -> $%.2f/MB: %.0fx = %.1fx beyond Moore [paper ~2x]\n",
		c.RAMUSDPerMBOld, c.RAMUSDPerMBNew, c.RAMRatio, c.RAMVsMoore)
	for _, r := range cluster.NPBComparisons() {
		fmt.Printf("NPB %s class B 16p: %.0f -> %.0f Mop/s (%.1fx), price/perf %.2fx Moore\n",
			r.Benchmark, r.LokiMops, r.SSMops, r.Improvement, r.PricePerfVsMoore)
	}
	tm := cluster.TreecodeMoore()
	fmt.Printf("treecode: %.1f -> %.0f Gflop/s = %.0fx vs %.0fx predicted (price x Moore): ratio %.2f\n",
		tm.LokiGflops, tm.SSGflops, tm.Improvement, tm.MoorePrediction, tm.ImprovementVsPredicted)
}

func cosApprox(x float64) float64 { return math.Cos(x) }
func sinApprox(x float64) float64 { return math.Sin(x) }
