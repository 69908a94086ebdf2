package main

// `ssbench trend` — the cross-run history view. For each comparable run
// group (same config digest, same host) it prints the headline metrics'
// sparkline history and judges the newest run against the median/MAD of the
// runs before it. With -gate, any regression exits nonzero, turning the
// trend view into a CI gate that needs no explicit baseline file.

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"spacesim/internal/obs/ledger"
)

// trendCmd owns its flag set like diff does (see ownFlagCmds).
func trendCmd(args []string) {
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
		os.Exit(2)
	}
	st := openLedgerAt(*dir)
	if st == nil {
		die(2, "trend: no ledger")
	}
	recs, err := st.Records()
	if err != nil {
		die(2, "trend:", err)
	}
	host := *hostFlag
	if host == "" && !*allHosts {
		host = ledger.Prov().HostKey()
	}

	// Group records by (config digest, host key), newest activity first.
	type group struct {
		digest, host string
		recs         []ledger.Record
	}
	byKey := map[string]*group{}
	var order []*group
	for _, r := range recs { // Records() is oldest→newest
		if *configFlag != "" && !strings.HasPrefix(r.ConfigDigest, *configFlag) {
			continue
		}
		hk := r.Build.HostKey()
		if host != "" && hk != host {
			continue
		}
		k := r.ConfigDigest + "|" + hk
		g, ok := byKey[k]
		if !ok {
			g = &group{digest: r.ConfigDigest, host: hk}
			byKey[k] = g
			order = append(order, g)
		}
		g.recs = append(g.recs, r)
	}
	sort.SliceStable(order, func(i, j int) bool {
		return order[i].recs[len(order[i].recs)-1].TimeUnixNS >
			order[j].recs[len(order[j].recs)-1].TimeUnixNS
	})
	if len(order) == 0 {
		fmt.Printf("trend: no matching runs in %s\n", st.Dir)
		return
	}

	regressed := false
	for _, g := range order {
		latest := g.recs[len(g.recs)-1]
		fmt.Printf("config %.12s  %s/%s  host %s  %d runs (latest %s)\n",
			g.digest, latest.Config.Tool, latest.Config.Experiment, g.host, len(g.recs), latest.ID)
		trends := ledger.Trend(g.recs, *lastK)
		printTrends(trends)
		if ledger.AnyRegression(trends) {
			regressed = true
		}
		fmt.Println()
	}
	if *gate && regressed {
		fmt.Println("trend: FAIL (regression against the run history)")
		os.Exit(1)
	}
}

// printTrends renders per-metric trend rows: history sparkline, latest
// value, robust baseline, verdict.
func printTrends(trends []ledger.MetricTrend) {
	for _, t := range trends {
		verdict := string(t.Verdict)
		if t.Detail != "" {
			verdict += "  " + t.Detail
		}
		fmt.Printf("  %-26s %-12s latest %.6g  median %.6g  %s\n",
			t.Name, ledger.TextSparkline(t.Values), t.Latest, t.Median, verdict)
	}
}
