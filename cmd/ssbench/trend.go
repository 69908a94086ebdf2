package main

// `ssbench trend` — the cross-run history view. For each comparable run
// group (same config digest, same host) it prints the headline metrics'
// sparkline history and judges the newest run against the median/MAD of the
// runs before it. With -gate, any regression exits nonzero, turning the
// trend view into a CI gate that needs no explicit baseline file. The live
// server's /runs page prints the same text (ledger.WriteGroups).

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"spacesim/internal/obs/ledger"
)

// trendCmd owns its flag set like diff does (see ownFlagCmds).
func trendCmd(args []string) {
	if code := runTrend(os.Stdout, args); code != 0 {
		os.Exit(code)
	}
}

// runTrend is `ssbench trend` writing to w; it returns the exit code.
func runTrend(w io.Writer, args []string) int {
	fs := flag.NewFlagSet("trend", flag.ExitOnError)
	dir := fs.String("ledger", *ledgerDir, "ledger directory to read")
	configFlag := fs.String("config", "", "only this config digest (prefix allowed)")
	hostFlag := fs.String("host", "", "only this host key (default: this host)")
	lastK := fs.Int("last", 10, "baseline window: most recent K runs before the newest")
	gate := fs.Bool("gate", false, "exit nonzero when the newest run of any group regressed")
	allHosts := fs.Bool("all-hosts", false, "include runs from every host, grouped separately")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ssbench trend [-ledger DIR] [-config DIGEST] [-host KEY|-all-hosts] [-last K] [-gate]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	st := ledger.OpenIf(*dir)
	if st == nil {
		fmt.Fprintln(os.Stderr, "trend: no ledger")
		return 2
	}
	recs, err := st.Records()
	if err != nil {
		fmt.Fprintln(os.Stderr, "trend:", err)
		return 2
	}
	host := *hostFlag
	if host == "" && !*allHosts {
		host = ledger.Prov().HostKey()
	}
	var keep []ledger.Record
	for _, r := range recs {
		if strings.HasPrefix(r.ConfigDigest, *configFlag) && (host == "" || r.Build.HostKey() == host) {
			keep = append(keep, r)
		}
	}
	if len(keep) == 0 {
		fmt.Fprintf(w, "trend: no matching runs in %s\n", st.Dir)
		return 0
	}
	if ledger.WriteGroups(w, ledger.GroupRecords(keep), *lastK) && *gate {
		fmt.Fprintln(w, "trend: FAIL (regression against the run history)")
		return 1
	}
	return 0
}
