// Command spacesim runs a parallel N-body simulation with the hashed
// oct-tree code on the modeled Space Simulator cluster and reports
// conservation diagnostics and modeled performance.
//
// Usage:
//
//	spacesim [-n 4000] [-procs 16] [-steps 10] [-dt 0.005] [-theta 0.7]
//	         [-ic plummer|coldsphere] [-checkpoint dir]
//	         [-faults seed] [-fault-accel 50] [-checkpoint-every 2]
//	         [-verify-recovery]
//	         [-trace trace.json] [-metrics metrics.json]
//	         [-report] [-analysis ANALYSIS.json]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	         [-http 127.0.0.1:8080]
//
// With -http, a live-telemetry server runs for the duration: /metrics
// (Prometheus text), /metrics.json, /progress.json (step fraction, rate,
// ETA), /runs (the ledger's trend text) and /debug/pprof/, each read from
// the run's current observation when requested.
//
// With -faults, a seeded fault schedule (drawn from the paper's Section 2.1
// hazard rates, accelerated by -fault-accel) is injected into the run:
// rank crashes recover through checkpoint rollback (cadence
// -checkpoint-every steps), and -verify-recovery additionally runs an
// uninterrupted twin and fails unless the recovered state matches it bit
// for bit.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"syscall"

	"spacesim/internal/core"
	"spacesim/internal/faults"
	"spacesim/internal/machine"
	"spacesim/internal/netsim"
	"spacesim/internal/obs"
	"spacesim/internal/obs/analysis"
	"spacesim/internal/obs/ledger"
	"spacesim/internal/obs/live"
	"spacesim/internal/pario"
)

func main() {
	var (
		n       = flag.Int("n", 4000, "number of bodies")
		procs   = flag.Int("procs", 16, "virtual processors (max 294)")
		steps   = flag.Int("steps", 10, "leapfrog steps")
		dt      = flag.Float64("dt", 0.005, "timestep (N-body units)")
		theta   = flag.Float64("theta", 0.7, "multipole acceptance parameter")
		eps     = flag.Float64("eps", 0.01, "Plummer softening")
		ic      = flag.String("ic", "plummer", "initial condition: plummer|coldsphere")
		seed    = flag.Int64("seed", 1, "RNG seed")
		ckpt    = flag.String("checkpoint", "", "directory for a final striped checkpoint")
		fSeed   = flag.Int64("faults", 0, "inject a seeded fault schedule (0 = off)")
		fAccel  = flag.Float64("fault-accel", faults.DefaultAccel, "fault acceleration: component-months of hazard per virtual second")
		ckEvery = flag.Int("checkpoint-every", 2, "recovery checkpoint cadence in steps (with -faults)")
		verify  = flag.Bool("verify-recovery", false, "with -faults: require >=1 crash and bit-identical recovery vs an uninterrupted twin")
		trace   = flag.String("trace", "", "write a Chrome trace_event JSON file of the run")
		metrics = flag.String("metrics", "", "write a metrics snapshot JSON file of the run")
		report  = flag.Bool("report", false, "retain structured telemetry and print the trace analysis")
		aOut    = flag.String("analysis", "ANALYSIS.json", "analysis report path (with -report)")
		cpuProf = flag.String("cpuprofile", "", "write a host-side CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a host-side heap profile to this file on exit")
		httpA   = flag.String("http", "", "serve live telemetry (metrics, progress, pprof) on this address during the run")
		ledgerD = flag.String("ledger", ledger.DefaultDir, "run-ledger directory for the cross-run history (empty disables ledger writes)")
	)
	flag.Parse()

	// The run configuration is checked before anything starts: a value no
	// run can honour is a usage error, not a profile, a listener and a
	// stack trace.
	var stopFlag atomic.Bool
	cfg := core.RunConfig{
		Cluster: machine.SpaceSimulator(netsim.ProfileLAM), Procs: *procs, Steps: *steps,
		Opt:          core.Options{Theta: *theta, Eps: *eps, DT: *dt},
		GatherBodies: *ckpt != "" || *fSeed != 0,
		Interrupt:    stopFlag.Load,
	}
	err := cfg.Validate()
	var ics []core.Body
	if err == nil {
		ics, err = core.MakeICs(*ic, *seed, *n)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spacesim:", err)
		os.Exit(2)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				log.Fatalf("memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("memprofile: %v", err)
			}
		}()
	}

	// Graceful interrupt: the first SIGINT/SIGTERM raises a flag that rank
	// 0 polls at step boundaries — the run checkpoints (when enabled),
	// gathers its partial state, and the process flushes artifacts and
	// exits nonzero. A second signal force-quits immediately.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		stopFlag.Store(true)
		fmt.Fprintln(os.Stderr, "spacesim: signal: stopping at the next step boundary (send again to force quit)")
		<-sigc
		fmt.Fprintln(os.Stderr, "spacesim: second signal: force quit")
		os.Exit(130)
	}()

	// Live telemetry serves whichever observation is current: newObs
	// publishes each one, and the fault path starts a fresh one per
	// recovery segment.
	var cur atomic.Pointer[obs.Obs]
	newObs := func() *obs.Obs {
		o := obs.New(*trace != "")
		if *report {
			o.EnableEvents()
		}
		ledger.Prov().Stamp(o.Reg)
		cur.Store(o)
		return o
	}
	o := newObs()
	if *httpA != "" {
		var mounts []live.Mount
		if *ledgerD != "" {
			// Best-effort like every ledger use: the server comes up
			// without /runs, and says so.
			if st, err := ledger.Open(*ledgerD); err != nil {
				fmt.Fprintln(os.Stderr, "ledger:", err)
			} else {
				mounts = append(mounts, live.Mount{Prefix: "/runs", Handler: st.Handler()})
			}
		}
		srv, err := live.Serve(*httpA, cur.Load, mounts...)
		if err != nil {
			log.Fatalf("http: %v", err)
		}
		defer srv.Close()
		fmt.Printf("live telemetry: http://%s/ (metrics, progress.json, runs, debug/pprof)\n", srv.Addr())
	}
	// The canonical run configuration: everything that makes two invocations
	// comparable in the ledger. Host-dependent values stay out by design.
	lcfg := ledger.Config{
		Tool: "spacesim", Experiment: "run", Scenario: *ic,
		N: *n, Ranks: *procs, Steps: *steps,
		Seed: *seed,
		Flags: map[string]string{
			"theta": fmt.Sprint(*theta), "dt": fmt.Sprint(*dt),
			"eps": fmt.Sprint(*eps),
		},
	}
	if *fSeed != 0 {
		lcfg.Flags["faults"] = fmt.Sprint(*fSeed)
		lcfg.Flags["fault_accel"] = fmt.Sprint(*fAccel)
		lcfg.Flags["checkpoint_every"] = fmt.Sprint(*ckEvery)
	}

	cfg.Cluster.Obs = o
	cl := cfg.Cluster

	var res core.Result
	var faultRep *analysis.FaultSummary
	if *fSeed != 0 {
		res, faultRep = runWithFaults(cfg, ics, *fSeed, *fAccel, *ckEvery, *verify, newObs)
		// Report from the completing segment's observation handle.
		o = res.Comm.Obs
	} else {
		res = core.Run(cfg, ics)
		if res.Err != nil {
			log.Fatalf("run failed: %v", res.Err)
		}
	}

	if res.Interrupted {
		fmt.Fprintf(os.Stderr, "spacesim: interrupted at step %d/%d — flushing partial state\n",
			res.CompletedSteps, *steps)
	}
	// On an interrupted run only the completed steps carry diagnostics.
	hist := res.EnergyHistory[:res.CompletedSteps+1]
	e0 := hist[0]
	eN := hist[len(hist)-1]
	fmt.Printf("%s: %d bodies on %d virtual processors, %d steps\n", cl.Name, *n, *procs, *steps)
	fmt.Printf("  energy %.6f -> %.6f (drift %.2e)\n", e0.Total(), eN.Total(),
		abs(eN.Total()-e0.Total())/abs(e0.Total()))
	fmt.Printf("  interactions %.3g, fetches %d, imbalance %.2f\n",
		float64(res.Interactions), res.Fetches, res.MaxImbalance)
	fmt.Printf("  modeled: %.2f s virtual, %.2f Gflop/s aggregate, %.1f Mflops/proc\n",
		res.ElapsedVirtual, res.Gflops, res.MflopsPerProc)
	fmt.Printf("  comm: %d messages, %.2f MB\n", res.Comm.Messages, float64(res.Comm.Bytes)/1e6)

	if *ckpt != "" {
		data := make([]float64, 0, 7*len(res.Bodies))
		for _, b := range res.Bodies {
			data = append(data, b.Pos[0], b.Pos[1], b.Pos[2], b.Vel[0], b.Vel[1], b.Vel[2], b.Mass)
		}
		path, err := pario.WriteStripe(*ckpt, "snapshot", 0, data)
		if err != nil {
			log.Fatalf("checkpoint: %v", err)
		}
		fmt.Printf("  checkpoint: %s (%d bodies)\n", path, len(res.Bodies))
	}

	artifact, headline := "", map[string]float64(nil)
	if *report && res.Interrupted {
		// The event log stops at the interrupt; a trace analysis over a
		// partial run would mislead, and a partial result must never enter
		// the ledger under the full configuration's digest.
		fmt.Fprintln(os.Stderr, "spacesim: interrupted — skipping the analysis report")
	} else if *report {
		rep, err := analysis.Analyze(o, cl, analysis.Options{})
		if err != nil {
			log.Fatalf("report: %v", err)
		}
		rep.Faults = faultRep
		if rep.Provenance != nil {
			rep.Provenance.ConfigDigest = lcfg.Digest()
		}
		fmt.Println()
		fmt.Print(rep.Render())
		if *aOut != "" {
			if err := rep.WriteJSON(*aOut); err != nil {
				log.Fatalf("report: %v", err)
			}
			fmt.Printf("  analysis: %s\n", *aOut)
			artifact, headline = *aOut, rep.Headline()
		}
	}

	if *metrics != "" {
		if err := o.WriteMetricsFile(*metrics); err != nil {
			log.Fatalf("metrics: %v", err)
		}
		fmt.Printf("  metrics: %s\n", *metrics)
	}
	if *trace != "" {
		if err := o.WriteTraceFile(*trace); err != nil {
			log.Fatalf("trace: %v", err)
		}
		fmt.Printf("  trace: %s (chrome://tracing or https://ui.perfetto.dev)\n", *trace)
	}

	if res.Interrupted {
		os.Exit(1)
	}
	appendRun(*ledgerD, lcfg, artifact, headline, res)
}

// appendRun records the finished run in the ledger: headline metrics from
// the result and, when the ANALYSIS.json artifact was written, from its
// report (headline), peak RSS, and the content-addressed artifact blob.
// Best-effort — a failed append warns and never fails the run.
func appendRun(dir string, cfg ledger.Config, artifactPath string, headline map[string]float64, res core.Result) {
	if dir == "" {
		return
	}
	st, err := ledger.Open(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return
	}
	metrics := map[string]float64{
		"makespan_sec":  res.ElapsedVirtual,
		"gflops":        res.Gflops,
		"max_imbalance": res.MaxImbalance,
	}
	for k, v := range headline {
		metrics[k] = v
	}
	var artifacts map[string][]byte
	if artifactPath != "" {
		if data, err := os.ReadFile(artifactPath); err == nil {
			artifacts = map[string][]byte{filepath.Base(artifactPath): data}
		}
	}
	if rss := ledger.PeakRSSBytes(); rss > 0 {
		metrics["peak_rss_bytes"] = float64(rss)
	}
	rec := &ledger.Record{Config: cfg, Build: ledger.Prov(), Metrics: metrics}
	id, err := st.Append(rec, artifacts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return
	}
	fmt.Printf("  ledger: run %s (config %s) in %s\n", id, rec.ConfigDigest[:12], st.Dir)
}

// runWithFaults executes the fault-injected path: an uninterrupted probe
// run measures the virtual horizon (and, with verify, the reference state),
// then a schedule drawn from the paper's hazard rates is injected and the
// run recovers through checkpoint rollback.
func runWithFaults(cfg core.RunConfig, ics []core.Body, seed int64, accel float64, every int, verify bool, newObs func() *obs.Obs) (core.Result, *analysis.FaultSummary) {
	probeCfg := cfg
	probeCfg.Cluster.Obs = obs.New(false)
	base := core.Run(probeCfg, ics)
	if base.Err != nil {
		log.Fatalf("faults: fault-free probe failed: %v", base.Err)
	}

	sched := faults.New(faults.Options{
		Ranks: cfg.Procs, Horizon: base.ElapsedVirtual, Seed: seed, Accel: accel,
	})
	fmt.Printf("fault schedule: seed %d, accel %g, horizon %.3fs — %d crash, %d degrade, %d flap, %d disk\n",
		seed, accel, base.ElapsedVirtual,
		sched.Count(faults.RankCrash), sched.Count(faults.LinkDegrade),
		sched.Count(faults.PortFlap), sched.Count(faults.DiskCorrupt))
	for _, f := range sched.Faults {
		fmt.Printf("  %s\n", f)
	}

	dir, err := os.MkdirTemp("", "spacesim-ck-")
	if err != nil {
		log.Fatalf("faults: %v", err)
	}
	defer os.RemoveAll(dir)
	cfg.Checkpoint = &core.CheckpointConfig{Dir: dir, Every: every}
	res, st, err := core.RunRecovered(core.RecoveryConfig{
		RunConfig: cfg,
		Injector:  faults.NewInjector(sched),
		NewObs:    func(int) *obs.Obs { return newObs() },
	}, ics)
	if err != nil {
		log.Fatalf("faults: recovery failed: %v", err)
	}

	fs := &analysis.FaultSummary{
		Attempts:         st.Attempts,
		Crashes:          st.Crashes,
		CrashRanks:       st.CrashRanks,
		CrashTimesSec:    st.CrashTimes,
		RestoredSteps:    st.RestoredSteps,
		ReplayedSteps:    st.ReplayedSteps,
		LostVirtualSec:   st.LostVirtualSec,
		TotalVirtualSec:  st.TotalVirtualSec,
		DegradedLinkSec:  st.DegradedLinkSec,
		FlappingPortSec:  st.FlappingPortSec,
		CheckpointWrites: st.CheckpointWrites,
		CheckpointSec:    st.CheckpointSec,
		CorruptStripes:   st.CorruptStripes,
	}
	fmt.Printf("recovery: %d crash(es), %d attempt(s), rollbacks %v, %d steps replayed, %.3fs virtual lost\n",
		st.Crashes, st.Attempts, st.RestoredSteps, st.ReplayedSteps, st.LostVirtualSec)

	if verify {
		if st.Crashes == 0 {
			log.Fatalf("verify-recovery: no crash fired within the %.3fs horizon — raise -fault-accel or change -faults seed", base.ElapsedVirtual)
		}
		ok := core.BitIdentical(base, res)
		fs.RecoveredBitIdentical = &ok
		if !ok {
			log.Fatal("verify-recovery: recovered state differs from the uninterrupted twin")
		}
		fmt.Println("verify-recovery: recovered state bit-identical to the uninterrupted twin")
	}
	return res, fs
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
