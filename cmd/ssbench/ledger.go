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

// openLedgerAt opens the ledger store in dir, or nil when dir is empty
// (ledger disabled) or unopenable (warned once).
func openLedgerAt(dir string) *ledger.Store {
	if dir == "" {
		return nil
	}
	st, err := ledger.Open(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return nil
	}
	return st
}

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
// is stored as a content-addressed blob, its headline metrics extracted,
// and a run record appended. Best-effort by contract.
func ledgerAppend(cfg ledger.Config, artifactName, artifactPath string) {
	st := openLedgerAt(*ledgerDir)
	if st == nil {
		return
	}
	rec := &ledger.Record{Config: cfg, Build: ledger.Prov()}
	var artifacts map[string][]byte
	metrics := map[string]float64{}
	if artifactPath != "" {
		data, err := os.ReadFile(artifactPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ledger:", err)
			return
		}
		artifacts = map[string][]byte{artifactName: data}
		metrics = ledger.ExtractMetrics(data)
	}
	if rss := ledger.PeakRSSBytes(); rss > 0 {
		metrics["peak_rss_bytes"] = float64(rss)
	}
	rec.Metrics = metrics
	id, err := st.Append(rec, artifacts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return
	}
	fmt.Printf("ledger: recorded run %s (config %s) in %s\n",
		id, rec.ConfigDigest[:12], st.Dir)
}
