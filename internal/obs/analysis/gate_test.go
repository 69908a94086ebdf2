package analysis_test

import (
	"testing"

	"spacesim/internal/obs"
	"spacesim/internal/obs/analysis"
	"spacesim/internal/obs/ledger"
)

// gatedReport is the hand-built report with a message-latency histogram
// and a config digest, so Gate has all three gated metrics to judge.
func gatedReport(t *testing.T) *analysis.Report {
	t.Helper()
	rep, err := analysis.Analyze(handTrace(), handCluster(), analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep.Histograms = map[string]obs.HistogramSnapshot{
		"mp.msg.latency_sec": {Count: 100, P50: 1e-4, P95: 2e-4, P99: 3e-4, Min: 1e-5, Max: 4e-4},
	}
	rep.Provenance = &ledger.Provenance{ConfigDigest: "hand"}
	return rep
}

// gateVerdicts runs Gate and returns its verdict per metric.
func gateVerdicts(t *testing.T, base, cur *analysis.Report) map[string]ledger.Verdict {
	t.Helper()
	trends, err := analysis.Gate(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]ledger.Verdict{}
	for _, tr := range trends {
		out[tr.Name] = tr.Verdict
	}
	return out
}

// wantVerdicts fails unless each metric in want got that verdict.
func wantVerdicts(t *testing.T, what string, got map[string]ledger.Verdict, want map[string]ledger.Verdict) {
	t.Helper()
	for metric, v := range want {
		if got[metric] != v {
			t.Errorf("%s: %s verdict %q, want %q (all: %v)", what, metric, got[metric], v, got)
		}
	}
}

func TestDiffSelfIsClean(t *testing.T) {
	rep := gatedReport(t)
	wantVerdicts(t, "self", gateVerdicts(t, rep, rep), map[string]ledger.Verdict{
		"makespan_sec": ledger.VerdictOK, "parallel_efficiency": ledger.VerdictOK,
		"msg_latency_p99_sec": ledger.VerdictOK})
}

func TestDiffCatchesMakespanRegression(t *testing.T) {
	base, cur := gatedReport(t), gatedReport(t)
	cur.MakespanSec = base.MakespanSec * 1.2 // above the 10% band
	wantVerdicts(t, "makespan x1.2", gateVerdicts(t, base, cur), map[string]ledger.Verdict{
		"makespan_sec": ledger.VerdictRegression, "parallel_efficiency": ledger.VerdictOK,
		"msg_latency_p99_sec": ledger.VerdictOK})

	cur.MakespanSec = base.MakespanSec * 1.05 // within the band
	wantVerdicts(t, "makespan x1.05", gateVerdicts(t, base, cur), map[string]ledger.Verdict{
		"makespan_sec": ledger.VerdictOK})
}

func TestDiffCatchesCategoryAndLatencyAndEfficiency(t *testing.T) {
	base := gatedReport(t)

	// The critical-path categories tile the makespan, so send time growing
	// from 3 s to 6 s on the path is caught as a 12 s -> 15 s makespan.
	cur := gatedReport(t)
	cur.CriticalPath.ByCategory[analysis.CatSend] += 3
	cur.CriticalPath.TotalSec += 3
	cur.MakespanSec += 3
	wantVerdicts(t, "send +3 s", gateVerdicts(t, base, cur), map[string]ledger.Verdict{
		"makespan_sec": ledger.VerdictRegression})

	cur = gatedReport(t)
	cur.Histograms["mp.msg.latency_sec"] = obs.HistogramSnapshot{Count: 100, P99: 3e-4 * 2}
	wantVerdicts(t, "p99 x2", gateVerdicts(t, base, cur), map[string]ledger.Verdict{
		"makespan_sec": ledger.VerdictOK, "msg_latency_p99_sec": ledger.VerdictRegression})

	cur = gatedReport(t)
	cur.ParallelEfficiency = base.ParallelEfficiency - 0.10
	wantVerdicts(t, "efficiency -0.10", gateVerdicts(t, base, cur), map[string]ledger.Verdict{
		"makespan_sec": ledger.VerdictOK, "parallel_efficiency": ledger.VerdictRegression})
}

// The config digest fixes the rank count and the modeled cluster, so
// reports from different machines carry different digests.
func TestDiffRefusesDifferentMachines(t *testing.T) {
	base := gatedReport(t)
	other := gatedReport(t)
	other.Machine.Name = "other"
	other.Provenance.ConfigDigest = "other"
	if _, err := analysis.Gate(base, other); err == nil {
		t.Fatal("reports with different config digests were judged")
	}
	other = gatedReport(t)
	other.Provenance = nil
	if _, err := analysis.Gate(base, other); err == nil {
		t.Fatal("a report without a config digest was judged")
	}
	if _, err := analysis.Gate(other, other); err == nil {
		t.Fatal("two reports without config digests were judged")
	}
}
