package main

// `ssbench report` — the static HTML dashboard of the run ledger: the same
// page the live server mounts at /runs, rendered to a file (or stdout) for
// archiving next to the JSON artifacts.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
)

// reportCmd owns its flag set like diff does (see ownFlagCmds).
func reportCmd(args []string) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	dir := fs.String("ledger", *ledgerDir, "ledger directory to read")
	htmlOut := fs.String("html", "RUNS.html", "output path for the HTML dashboard (- for stdout)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ssbench report [-ledger DIR] [-html FILE]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	st := openLedgerAt(*dir)
	if st == nil {
		die(2, "report: no ledger")
	}
	var b bytes.Buffer
	if err := st.RenderIndexHTML(&b); err != nil {
		die(1, "report:", err)
	}
	if *htmlOut == "-" {
		os.Stdout.Write(b.Bytes())
		return
	}
	if err := os.WriteFile(*htmlOut, b.Bytes(), 0o644); err != nil {
		die(1, "report:", err)
	}
	fmt.Printf("wrote %s\n", *htmlOut)
}
