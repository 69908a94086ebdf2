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
// The run flags (-n, -procs, -steps, -dt, -theta, -eps, -ic, -seed,
// -faults, -fault-accel, -checkpoint-every) are a job.Spec, the one
// description of a run that spacesimd jobs use too: their defaults are
// job.Defaults, and a run and a daemon job of one spec share a config
// digest and, whoever ran them, a result.
//
// With -http, a live-telemetry server runs for the duration: /metrics
// (Prometheus text), /metrics.json, /progress.json (step fraction, rate,
// ETA), /runs (the ledger's trend text) and /debug/pprof/, each read from
// the run's current observation when requested.
//
// With -faults, a seeded fault schedule (drawn from the paper's Section 2.1
// hazard rates, accelerated by -fault-accel) is injected into the run:
// rank crashes recover through checkpoint rollback (cadence
// -checkpoint-every steps), and the recovered state must match an
// uninterrupted twin bit for bit; -verify-recovery also requires a crash
// to have fired.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"

	"spacesim/internal/faults"
	"spacesim/internal/job"
	"spacesim/internal/obs"
	"spacesim/internal/obs/analysis"
	"spacesim/internal/obs/ledger"
	"spacesim/internal/obs/live"
	"spacesim/internal/pario"
)

func main() { os.Exit(run(os.Args[1:])) }

// options are spacesim's flags outside the job spec: what to write and
// serve about the run.
type options struct {
	snapshot, trace, metrics, analysis string
	cpuProf, memProf, http, ledger     string
	verify, report                     bool
}

// parse reads the command line into a job spec, starting from
// job.Defaults, and the other options.
func parse(args []string) (job.Spec, options, error) {
	fs := flag.NewFlagSet("spacesim", flag.ContinueOnError)
	sp, o := job.Defaults, options{}
	fs.IntVar(&sp.N, "n", sp.N, "number of bodies")
	fs.IntVar(&sp.Ranks, "procs", sp.Ranks, "virtual processors (max 294)")
	fs.IntVar(&sp.Steps, "steps", sp.Steps, "leapfrog steps")
	fs.Float64Var(&sp.DT, "dt", sp.DT, "timestep (N-body units)")
	fs.Float64Var(&sp.Theta, "theta", sp.Theta, "multipole acceptance parameter")
	fs.Float64Var(&sp.Eps, "eps", sp.Eps, "Plummer softening")
	fs.StringVar(&sp.Scenario, "ic", sp.Scenario, "initial condition: plummer|coldsphere")
	fs.Int64Var(&sp.Seed, "seed", sp.Seed, "RNG seed")
	fs.Int64Var(&sp.FaultSeed, "faults", sp.FaultSeed, "inject a seeded fault schedule (0 = off)")
	fs.Float64Var(&sp.FaultAccel, "fault-accel", sp.FaultAccel, "fault acceleration: component-months of hazard per virtual second")
	fs.IntVar(&sp.CheckpointEvery, "checkpoint-every", sp.CheckpointEvery, "recovery checkpoint cadence in steps (with -faults)")
	fs.StringVar(&o.snapshot, "checkpoint", "", "directory for a final striped checkpoint")
	fs.BoolVar(&o.verify, "verify-recovery", false, "with -faults: require >=1 crash (the recovered state is always checked against an uninterrupted twin)")
	fs.StringVar(&o.trace, "trace", "", "write a Chrome trace_event JSON file of the run")
	fs.StringVar(&o.metrics, "metrics", "", "write a metrics snapshot JSON file of the run")
	fs.BoolVar(&o.report, "report", false, "retain structured telemetry and print the trace analysis")
	fs.StringVar(&o.analysis, "analysis", "ANALYSIS.json", "analysis report path (with -report)")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a host-side CPU profile to this file")
	fs.StringVar(&o.memProf, "memprofile", "", "write a host-side heap profile to this file on exit")
	fs.StringVar(&o.http, "http", "", "serve live telemetry (metrics, progress, pprof) on this address during the run")
	fs.StringVar(&o.ledger, "ledger", ledger.DefaultDir, "run-ledger directory for the cross-run history (empty disables ledger writes)")
	return sp, o, fs.Parse(args)
}

// run is the command: its exit status is 2 for a command line no run can
// honour, 1 for an interrupted run, 0 otherwise; a failed run or artifact
// write exits 1 on the spot.
func run(args []string) int {
	sp, o, err := parse(args)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	// The spec is checked before anything starts: a value no run can
	// honour is a usage error, not a profile, a listener and a stack trace.
	if err := sp.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "spacesim:", err)
		return 2
	}

	// The final checkpoint's directory is made before the run, so a path
	// that cannot hold it fails before any step is simulated.
	if o.snapshot != "" {
		if err := os.MkdirAll(o.snapshot, 0o755); err != nil {
			log.Fatalf("checkpoint: %v", err)
		}
	}
	defer obs.StartProfiles(o.cpuProf, o.memProf, func(err error) { log.Fatal(err) })()

	// Graceful interrupt: the first SIGINT/SIGTERM raises a flag that rank
	// 0 polls at step boundaries — the run checkpoints (when enabled),
	// gathers its partial state, and the process flushes artifacts and
	// exits nonzero. A second signal force-quits immediately.
	var stop atomic.Bool
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		stop.Store(true)
		fmt.Fprintln(os.Stderr, "spacesim: signal: stopping at the next step boundary (send again to force quit)")
		<-sigc
		fmt.Fprintln(os.Stderr, "spacesim: second signal: force quit")
		os.Exit(130)
	}()

	// Live telemetry serves whichever observation is current: newObs
	// publishes each one, and a run with faults starts a fresh one per
	// recovery segment.
	var cur atomic.Pointer[obs.Obs]
	newObs := func() *obs.Obs {
		ob := obs.New(o.trace != "" || o.report)
		ledger.Prov().Stamp(ob.Reg)
		cur.Store(ob)
		return ob
	}
	newObs() // served until the run's first segment starts
	st := ledger.OpenIf(o.ledger)
	if o.http != "" {
		srv, err := live.Serve(o.http, cur.Load, st.Handler())
		if err != nil {
			log.Fatalf("http: %v", err)
		}
		defer srv.Close()
		fmt.Printf("live telemetry: http://%s/ (metrics, progress.json, runs, debug/pprof)\n", srv.Addr())
	}

	var sched faults.Schedule
	res, rec, err := job.Execute(sp, job.Hooks{
		NewObs: newObs, Interrupt: stop.Load, GatherBodies: o.snapshot != "",
		Started: func(s faults.Schedule) {
			if sched = s; sp.FaultSeed == 0 {
				return
			}
			fmt.Printf("fault schedule: seed %d, accel %g, horizon %.3fs — %d crash, %d degrade, %d flap, %d disk\n",
				s.Seed, s.Accel, s.Horizon, s.Count(faults.RankCrash), s.Count(faults.LinkDegrade),
				s.Count(faults.PortFlap), s.Count(faults.DiskCorrupt))
			for _, f := range s.Faults {
				fmt.Printf("  %s\n", f)
			}
		},
	})
	if err != nil {
		log.Fatalf("run failed: %v", err)
	}
	var faultRep *faults.Recovery
	if rec.Attempts > 0 && sp.FaultSeed != 0 {
		fmt.Printf("recovery: %d crash(es), %d attempt(s), rollbacks %v, %d steps replayed, %.3fs virtual lost\n",
			rec.Crashes, rec.Attempts, rec.RestoredSteps, rec.ReplayedSteps, rec.LostVirtualSec)
		faultRep = &rec
	}
	if o.verify && sp.FaultSeed != 0 && !res.Interrupted {
		if rec.Crashes == 0 {
			log.Fatalf("verify-recovery: no crash fired within the %.3fs horizon — raise -fault-accel or change -faults seed", sched.Horizon)
		}
		fmt.Println("verify-recovery: recovered state bit-identical to the uninterrupted twin")
	}

	if res.Interrupted {
		fmt.Fprintf(os.Stderr, "spacesim: interrupted at step %d/%d — flushing partial state\n",
			res.CompletedSteps, sp.Steps)
	}
	// On an interrupted run only the completed steps carry diagnostics.
	cl := sp.RunConfig().Cluster
	hist := res.EnergyHistory[:res.CompletedSteps+1]
	e0 := hist[0]
	eN := hist[len(hist)-1]
	fmt.Printf("%s: %d bodies on %d virtual processors, %d steps\n", cl.Name, sp.N, sp.Ranks, sp.Steps)
	fmt.Printf("  energy %.6f -> %.6f (drift %s)\n", e0.Total(), eN.Total(), drift(e0.Total(), eN.Total()))
	fmt.Printf("  interactions %.3g, fetches %d, imbalance %.2f\n",
		float64(res.Interactions), res.Fetches, res.MaxImbalance)
	fmt.Printf("  modeled: %.2f s virtual, %.2f Gflop/s aggregate, %.1f Mflops/proc\n",
		res.ElapsedVirtual, res.Gflops, res.MflopsPerProc)
	fmt.Printf("  comm: %d messages, %.2f MB\n", res.Comm.Messages, float64(res.Comm.Bytes)/1e6)

	if o.snapshot != "" {
		data := make([]float64, 0, 7*len(res.Bodies))
		for _, b := range res.Bodies {
			data = append(data, b.Pos[0], b.Pos[1], b.Pos[2], b.Vel[0], b.Vel[1], b.Vel[2], b.Mass)
		}
		path, err := pario.WriteStripe(o.snapshot, "snapshot", 0, data)
		if err != nil {
			log.Fatalf("checkpoint: %v", err)
		}
		fmt.Printf("  checkpoint: %s (%d bodies)\n", path, len(res.Bodies))
	}

	// Report from the completing segment's observation.
	ob := res.Comm.Obs
	metrics := map[string]float64{
		"makespan_sec":  res.ElapsedVirtual,
		"gflops":        res.Gflops,
		"max_imbalance": res.MaxImbalance,
	}
	var artifacts map[string][]byte
	if o.report && res.Interrupted {
		// The event log stops at the interrupt; a trace analysis over a
		// partial run would mislead, and a partial result must never enter
		// the ledger under the full configuration's digest.
		fmt.Fprintln(os.Stderr, "spacesim: interrupted — skipping the analysis report")
	} else if o.report {
		rep, err := analysis.Analyze(ob, cl)
		if err != nil {
			log.Fatalf("report: %v", err)
		}
		rep.Faults = faultRep
		if rep.Provenance != nil {
			rep.Provenance.ConfigDigest = sp.Digest()
		}
		fmt.Println()
		fmt.Print(rep.Render())
		if o.analysis != "" {
			if err := rep.WriteJSON(o.analysis); err != nil {
				log.Fatalf("report: %v", err)
			}
			fmt.Printf("  analysis: %s\n", o.analysis)
			for k, v := range rep.Headline() {
				metrics[k] = v
			}
			if data, err := os.ReadFile(o.analysis); err == nil {
				artifacts = map[string][]byte{filepath.Base(o.analysis): data}
			}
		}
	}

	if o.metrics != "" {
		if err := ob.WriteMetricsFile(o.metrics); err != nil {
			log.Fatalf("metrics: %v", err)
		}
		fmt.Printf("  metrics: %s\n", o.metrics)
	}
	if o.trace != "" {
		if err := ob.WriteTraceFile(o.trace); err != nil {
			log.Fatalf("trace: %v", err)
		}
		fmt.Printf("  trace: %s (chrome://tracing or https://ui.perfetto.dev)\n", o.trace)
	}

	if res.Interrupted {
		return 1
	}
	if rss := ledger.PeakRSSBytes(); rss > 0 {
		metrics["peak_rss_bytes"] = float64(rss)
	}
	if r := st.AppendRun(sp.LedgerConfig(), metrics, artifacts); r != nil {
		fmt.Printf("  ledger: run %s (config %s) in %s\n", r.ID, r.ConfigDigest[:12], st.Dir)
	}
	return 0
}

// drift formats the relative energy drift from e0 to eN, or "—" when the
// initial energy is 0 (no bodies, or one at rest), which has no relative
// drift.
func drift(e0, eN float64) string {
	if e0 == 0 {
		return "—"
	}
	return fmt.Sprintf("%.2e", math.Abs(eN-e0)/math.Abs(e0))
}
