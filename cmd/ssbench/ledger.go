package main

// Run-ledger glue: every artifact-writing ssbench experiment appends a run
// record (config digest, provenance, headline metrics, artifact blob) to
// the local ledger. All writes are best-effort — the ledger lives strictly
// after the run's virtual clocks have stopped, and a failed append warns
// on stderr without failing the invocation.

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"spacesim/internal/obs/ledger"
)

var ledgerDir = flag.String("ledger", ledger.DefaultDir,
	"run-ledger directory for the cross-run history (empty disables ledger writes)")

// ledgerConfig assembles the canonical config for an ssbench experiment.
// Only deterministic invocation parameters go in — the digest must be
// identical across repeated identical invocations on any machine.
func ledgerConfig(experiment string, n, ranks, steps, workers int, seed int64) ledger.Config {
	return ledger.Config{
		Tool:       "ssbench",
		Experiment: experiment,
		N:          n,
		Ranks:      ranks,
		Steps:      steps,
		Workers:    workers,
		Seed:       seed,
		Flags:      map[string]string{"quick": strconv.FormatBool(*quick)},
	}
}

// provFor returns the process provenance stamped with cfg's digest — the
// block the artifact writers embed so a bare artifact can be keyed back to
// its comparable ledger history.
func provFor(cfg ledger.Config) *ledger.Provenance {
	p := ledger.Prov()
	p.ConfigDigest = cfg.Digest()
	return &p
}

// ledgerAppend records one finished experiment: the artifact file at path
// is stored as a content-addressed blob and a run record appended with the
// headline metrics the caller holds and the process's peak RSS.
func ledgerAppend(cfg ledger.Config, artifactName, artifactPath string, metrics map[string]float64) {
	st := ledger.OpenIf(*ledgerDir)
	if st == nil {
		return
	}
	data, err := os.ReadFile(artifactPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return
	}
	if rss := ledger.PeakRSSBytes(); rss > 0 {
		metrics["peak_rss_bytes"] = float64(rss)
	}
	if rec := st.AppendRun(cfg, metrics, map[string][]byte{artifactName: data}); rec != nil {
		fmt.Printf("ledger: recorded run %s (config %s) in %s\n", rec.ID, rec.ConfigDigest[:12], st.Dir)
	}
}
