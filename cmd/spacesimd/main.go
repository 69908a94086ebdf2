// Command spacesimd is the simulation job server: a crash-safe daemon that
// accepts per-job configurations over HTTP, persists them to a durable
// journal, executes them on a bounded worker pool, and keeps each result
// once, as a run-ledger record keyed by configuration digest.
//
// Usage:
//
//	spacesimd [-addr 127.0.0.1:8080] [-state .spacesimd] [-workers 2]
//	          [-max-queue 64] [-max-retries 2] [-retry-base 1s]
//	          [-min-deadline 60s] [-deadline-factor 4]
//	          [-ledger .ssruns]
//
// Submit a job:
//
//	curl -s -X POST localhost:8080/jobs -d '{"scenario":"plummer","n":4000,
//	  "ranks":16,"steps":10,"checkpoint_every":2,"seed":1}'
//
// A job is a job.Spec, the description spacesim parses its run flags
// into; an absent key takes spacesim's default (job.Defaults: plummer, 4000
// bodies, 16 ranks, 10 steps, seed 1, dt 0.005, theta 0.7, eps 0.01, a
// checkpoint every 2 steps), so the job above is what an empty POST runs,
// and it shares its config digest and result digest with a bare spacesim.
// A key that is present keeps its value, zero included, as a flag does.
//
// then poll /jobs/{id} (live progress and ETA while running) and fetch
// /jobs/{id}/artifact when done. The ledger (-ledger, default .ssruns; with
// -ledger "" the directory runs/ under -state) is the one result store: a
// computed job appends one record whose JOB.json blob is its artifact, and
// an identical configuration is answered from that blob without
// re-simulating; "no_cache":true forces a recompute. /runs lists the
// records.
//
// The daemon is built to be killed. kill -9 it mid-job and restart: the
// journal replays, the job requeues, and it resumes from its newest intact
// checkpoint — the finished artifact is bit-identical to an uninterrupted
// run. SIGTERM/SIGINT drains gracefully instead: running jobs checkpoint at
// their next step boundary and requeue, then the process exits 0. A second
// signal force-quits.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spacesim/internal/obs/ledger"
	"spacesim/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		state    = flag.String("state", ".spacesimd", "state directory: job journal, checkpoints (and the ledger, with -ledger \"\")")
		workers  = flag.Int("workers", 2, "concurrent job executions")
		maxQueue = flag.Int("max-queue", 64, "admitted-but-unfinished job bound (beyond it: 429 + Retry-After)")
		retries  = flag.Int("max-retries", 2, "retry budget per job (0 = fail on the first bad attempt)")
		rBase    = flag.Duration("retry-base", time.Second, "retry backoff base (doubles per retry, plus deterministic jitter)")
		rMax     = flag.Duration("retry-max", 30*time.Second, "retry backoff cap")
		minDL    = flag.Duration("min-deadline", 60*time.Second, "watchdog deadline floor per attempt")
		dlFactor = flag.Float64("deadline-factor", 4, "watchdog deadline as a multiple of the job's own first ETA estimate")
		ledgerD  = flag.String("ledger", ledger.DefaultDir, "run-ledger directory, the result store (empty: runs/ under -state)")
	)
	flag.Parse()

	cfg := serve.Config{
		Dir: *state, Workers: *workers, MaxQueue: *maxQueue,
		MaxRetries: *retries, RetryBase: *rBase, RetryMax: *rMax,
		MinDeadline: *minDL, DeadlineFactor: *dlFactor,
	}
	if *ledgerD != "" {
		st, err := ledger.Open(*ledgerD)
		if err != nil {
			log.Fatalf("ledger: %v", err)
		}
		cfg.Ledger = st
	}
	s, err := serve.New(cfg)
	if err != nil {
		log.Fatalf("spacesimd: %v", err)
	}

	// Listen before printing, so the line names the port the kernel chose
	// when -addr asks for port 0.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("spacesimd: http: %v", err)
	}
	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("spacesimd: serving on http://%s/ (state %s, %d workers)\n", ln.Addr(), *state, *workers)

	select {
	case err := <-errc:
		log.Fatalf("spacesimd: http: %v", err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "spacesimd: %v: draining (checkpointing and requeuing running jobs; send again to force quit)\n", sig)
	}
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "spacesimd: second signal: force quit")
		os.Exit(1)
	}()
	s.Drain()
	srv.Close()
	fmt.Fprintln(os.Stderr, "spacesimd: drained cleanly")
}
