// Command ssbench checks the paper's evaluation: exhibits.go holds one row
// per claim, the paper's value beside this reproduction's and its band.
// `ssbench <prefix>` prints as Markdown the rows whose ids start with prefix
// (table3, fig8, s2.1, table3/CG), `ssbench all` every row (EXPERIMENTS.md
// holds it verbatim); it exits 1 when a row leaves its band.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"spacesim/internal/obs"
	"spacesim/internal/obs/ledger"
	"spacesim/internal/obs/live"
)

var (
	quick      = flag.Bool("quick", false, "shrink the simulated workloads for a fast pass")
	traceOut   = flag.String("trace", "", "write a Chrome trace_event JSON file of the run (enables the tracer)")
	metricsOut = flag.String("metrics", "", "write a metrics snapshot JSON file of the run")
	cpuProfile = flag.String("cpuprofile", "", "write a host-side CPU profile to this file")
	memProfile = flag.String("memprofile", "", "write a host-side heap profile to this file on exit")
	httpAddr   = flag.String("http", "", "serve live telemetry (/metrics, /progress.json, /debug/pprof/) on this address during the run")
)

// runObs observes every cluster run of the invocation (see ssCluster); the
// tracer is attached only when -trace is set.
var runObs *obs.Obs

// liveServer serves runObs while -http live telemetry is on; nil otherwise.
var liveServer *live.Server

// ownFlagCmds are the subcommands that own their argument parsing
// (positional file arguments or private flag sets), so the global
// after-the-experiment-name re-parse must leave their arguments alone.
var ownFlagCmds = map[string]func([]string){"diff": diffCmd, "faultsweep": faultsweepCmd, "trend": trendCmd}

// parseInvocation parses an ssbench argument vector (without the program
// name) against fs. Global flags are accepted both before and after the
// experiment name — `ssbench -http :0 fig8` and `ssbench fig8 -http :0`
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
	if ownFlagCmds[cmd] != nil {
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
	if tool := ownFlagCmds[cmd]; tool != nil {
		tool(rest)
		return
	}
	exit := 0
	defer func() {
		if exit != 0 {
			os.Exit(exit)
		}
	}()
	runObs = obs.New(*traceOut != "")
	ledger.Prov().Stamp(runObs.Reg)
	startLive()
	defer writeObs()
	defer stopProfiles()
	defer liveServer.Close()
	startProfiles()
	if cmd == "analyze" {
		analyzeBench()
		return
	}
	matched, ok := render(os.Stdout, cmd, *quick)
	if !matched {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", cmd)
		usage()
		exit = 2
	} else if !ok {
		exit = 1
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ssbench [-quick] [-ledger DIR] [-trace FILE] [-metrics FILE] [-http ADDR] [-cpuprofile FILE] [-memprofile FILE] <all|row-id prefix (table3, fig8, s2.1, ...)|analyze|diff|faultsweep|trend>")
	fmt.Fprintln(os.Stderr, "       (global flags are accepted before or after the experiment name)")
	fmt.Fprintln(os.Stderr, "       ssbench diff OLD.json NEW.json   (gate NEW against OLD, two ANALYSIS.json reports of one config digest, with the ledger's bands)")
	fmt.Fprintln(os.Stderr, "       ssbench trend [-ledger DIR] [-config DIGEST] [-host KEY|-all-hosts] [-last K] [-gate]   (per-metric history vs median/MAD baseline; the /runs text)")
}

// startLive starts the live-telemetry server over runObs when -http is set.
func startLive() {
	if *httpAddr == "" {
		return
	}
	var mounts []live.Mount
	if st := openLedgerAt(*ledgerDir); st != nil {
		mounts = append(mounts, live.Mount{Prefix: "/runs", Handler: st.Handler()})
	}
	srv, err := live.Serve(*httpAddr, func() *obs.Obs { return runObs }, mounts...)
	if err != nil {
		die(1, "http:", err)
	}
	liveServer = srv
	fmt.Printf("live telemetry on http://%s/ (metrics, progress.json, runs, debug/pprof)\n", srv.Addr())
}

// startProfiles begins host-side pprof capture when requested.
func startProfiles() {
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			die(1, "cpuprofile:", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			die(1, "cpuprofile:", err)
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
			die(1, "memprofile:", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			die(1, "memprofile:", err)
		}
	}
}

// writeObs flushes the run's trace and metrics files, if requested.
func writeObs() {
	if *metricsOut != "" {
		if err := runObs.WriteMetricsFile(*metricsOut); err != nil {
			die(1, "metrics:", err)
		}
		fmt.Printf("wrote metrics to %s\n", *metricsOut)
	}
	if *traceOut != "" {
		if err := runObs.WriteTraceFile(*traceOut); err != nil {
			die(1, "trace:", err)
		}
		fmt.Printf("wrote trace to %s\n", *traceOut)
	}
}

// die prints its operands to stderr as one line and exits with code.
func die(code int, a ...any) {
	fmt.Fprintln(os.Stderr, a...)
	os.Exit(code)
}
