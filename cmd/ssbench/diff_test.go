package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"spacesim/internal/obs"
	"spacesim/internal/obs/analysis"
	"spacesim/internal/obs/ledger"
)

// gateReport is the smallest report that passes the invariant checks and
// carries the three gated headline metrics.
func gateReport(digest string, makespan, eff, p99 float64) *analysis.Report {
	r := &analysis.Report{
		SchemaVersion: 1, Ranks: 4, MakespanSec: makespan,
		ParallelEfficiency: eff, IdleFraction: 1 - eff,
		CriticalPath: analysis.CriticalPath{TotalSec: makespan,
			ByCategory: map[string]float64{analysis.CatCompute: makespan}},
		Histograms: map[string]obs.HistogramSnapshot{
			"mp.msg.latency_sec": {Count: 100, Min: p99 / 4, P50: p99 / 3, P95: p99 / 2, P99: p99, Max: p99},
		},
	}
	if digest != "" {
		r.Provenance = &ledger.Provenance{ConfigDigest: digest}
	}
	return r
}

// `ssbench diff` judges NEW against OLD with the ledger's bands: makespan
// +10%, parallel efficiency -0.05 absolute, message-latency p99 +50%.
func TestDiffGate(t *testing.T) {
	const mk, eff, p99 = 10.0, 0.6, 3e-4
	old := gateReport("abc", mk, eff, p99)
	cases := []struct {
		name     string
		new      *analysis.Report
		wantCode int
		verdicts map[string]ledger.Verdict
	}{
		{"self", old, 0, map[string]ledger.Verdict{
			"makespan_sec": "ok", "parallel_efficiency": "ok", "msg_latency_p99_sec": "ok"}},
		{"makespan x1.2", gateReport("abc", mk*1.2, eff, p99), 1, map[string]ledger.Verdict{
			"makespan_sec": "regression", "parallel_efficiency": "ok", "msg_latency_p99_sec": "ok"}},
		{"makespan x1.05", gateReport("abc", mk*1.05, eff, p99), 0, map[string]ledger.Verdict{
			"makespan_sec": "ok"}},
		{"efficiency -0.06", gateReport("abc", mk, eff-0.06, p99), 1, map[string]ledger.Verdict{
			"makespan_sec": "ok", "parallel_efficiency": "regression", "msg_latency_p99_sec": "ok"}},
		{"p99 x1.6", gateReport("abc", mk, eff, p99*1.6), 1, map[string]ledger.Verdict{
			"makespan_sec": "ok", "parallel_efficiency": "ok", "msg_latency_p99_sec": "regression"}},
		{"makespan improved", gateReport("abc", mk*0.8, eff, p99), 0, map[string]ledger.Verdict{
			"makespan_sec": "improved"}},
		{"different digests", gateReport("abd", mk, eff, p99), 2, nil},
		{"NEW without digest", gateReport("", mk, eff, p99), 2, nil},
	}
	dir := t.TempDir()
	write := func(name string, r *analysis.Report) string {
		path := filepath.Join(dir, name)
		if err := r.WriteJSON(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath := write("old.json", old)
	for i, c := range cases {
		var out bytes.Buffer
		code := runDiff(&out, []string{oldPath, write(fmt.Sprintf("new%d.json", i), c.new)})
		if code != c.wantCode {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, code, c.wantCode, out.String())
		}
		for metric, want := range c.verdicts {
			if got := verdictOf(out.String(), metric); got != want {
				t.Errorf("%s: %s verdict %q, want %q\n%s", c.name, metric, got, want, out.String())
			}
		}
	}

	noDigest := write("old-nodigest.json", gateReport("", mk, eff, p99))
	notReport := filepath.Join(dir, "sweep.json")
	if err := os.WriteFile(notReport, []byte(`{"schema_version": 1, "entries": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{noDigest, noDigest},
		{oldPath, notReport},
		{oldPath},
		{"-baseline", oldPath},
	} {
		if code := runDiff(&bytes.Buffer{}, args); code != 2 {
			t.Errorf("diff %v: exit %d, want 2", args, code)
		}
	}
}

// verdictOf reads metric's verdict from a WriteTrends row.
func verdictOf(out, metric string) ledger.Verdict {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 7 && f[0] == metric {
			return ledger.Verdict(f[6])
		}
	}
	return ""
}

// Two runs of the quick analyze workload give the same headline metrics,
// so the diff gate never judges scheduling noise, and the same per-phase
// summaries to the bit.
func TestAnalyzeReproducible(t *testing.T) {
	var reps [2]*analysis.Report
	for i := range reps {
		reps[i], _, _ = analyzeRun(obs.New(false), 2048, 1) // the -quick size
	}
	if a, b := reps[0].Headline(), reps[1].Headline(); !reflect.DeepEqual(a, b) {
		t.Fatalf("quick analyze headlines differ:\n%v\n%v", a, b)
	}
	if !reflect.DeepEqual(reps[0].Phases, reps[1].Phases) {
		t.Fatalf("quick analyze phases differ:\n%+v\n%+v", reps[0].Phases, reps[1].Phases)
	}
}
