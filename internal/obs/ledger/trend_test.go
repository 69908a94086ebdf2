package ledger

import (
	"math"
	"testing"
)

func TestMedianAndMAD(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100}
	if m := median(xs); m != 3 {
		t.Fatalf("median = %v, want 3", m)
	}
	if m := median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Fatalf("even median = %v, want 2.5", m)
	}
	// Deviations around 3: {2,1,0,1,97} → median 1. The outlier barely moves it.
	if d := mad(xs, 3); d != 1 {
		t.Fatalf("mad = %v, want 1", d)
	}
	if median(nil) != 0 || mad(nil, 0) != 0 {
		t.Fatal("empty series must summarize to 0")
	}
}

func recsWithMetric(name string, vals ...float64) []Record {
	recs := make([]Record, len(vals))
	for i, v := range vals {
		recs[i] = Record{
			TimeUnixNS:   int64(i + 1),
			ConfigDigest: "d",
			Build:        Prov(),
			Metrics:      map[string]float64{name: v},
		}
	}
	return recs
}

func gateOne(t *testing.T, name string, baseline []float64, latest float64) MetricTrend {
	t.Helper()
	trends := GateAgainst(recsWithMetric(name, baseline...), map[string]float64{name: latest}, 10)
	if len(trends) != 1 {
		t.Fatalf("got %d trends, want 1", len(trends))
	}
	return trends[0]
}

func TestGateVerdicts(t *testing.T) {
	// Stable baseline, small wobble: OK.
	if tr := gateOne(t, "makespan_sec", []float64{10, 10, 10}, 10.5); tr.Verdict != VerdictOK {
		t.Fatalf("5%% wobble verdict = %s, want ok (%s)", tr.Verdict, tr.Detail)
	}
	// +30% makespan on a constant baseline (MAD 0 → frac-only): regression.
	if tr := gateOne(t, "makespan_sec", []float64{10, 10, 10}, 13); tr.Verdict != VerdictRegression {
		t.Fatalf("+30%% makespan verdict = %s, want regression", tr.Verdict)
	}
	// -30%: improvement, never a failure.
	if tr := gateOne(t, "makespan_sec", []float64{10, 10, 10}, 7); tr.Verdict != VerdictImproved {
		t.Fatalf("-30%% makespan verdict = %s, want improved", tr.Verdict)
	}
	// Higher-better metric: a drop is the regression direction.
	if tr := gateOne(t, "gflops", []float64{10, 10}, 4); tr.Verdict != VerdictRegression {
		t.Fatalf("Gflop/s more than halved verdict = %s, want regression", tr.Verdict)
	}
	if tr := gateOne(t, "gflops", []float64{10, 10}, 20); tr.Verdict != VerdictImproved {
		t.Fatalf("Gflop/s doubled verdict = %s, want improved", tr.Verdict)
	}
	// Absolute gate: parallel efficiency −0.06 beyond the ±0.05 band.
	if tr := gateOne(t, "parallel_efficiency", []float64{0.9, 0.9}, 0.83); tr.Verdict != VerdictRegression {
		t.Fatalf("efficiency drop verdict = %s, want regression", tr.Verdict)
	}
	// Ungated metric: info, regardless of movement.
	if tr := gateOne(t, "checkpoint_overhead_sec", []float64{1}, 100); tr.Verdict != VerdictInfo {
		t.Fatalf("ungated metric verdict = %s, want info", tr.Verdict)
	}
	// No baseline at all.
	if tr := gateOne(t, "makespan_sec", nil, 10); tr.Verdict != VerdictNoBaseline {
		t.Fatalf("empty-baseline verdict = %s, want no_baseline", tr.Verdict)
	}
}

func TestGateNoisyBaselineWidens(t *testing.T) {
	// A baseline scattered ±30% around 10: 3σ (σ = 1.4826·MAD) exceeds the
	// 10% band, so a +15% latest that would fail on a constant baseline
	// passes on this one.
	noisy := []float64{7, 13, 8, 12, 10}
	tr := gateOne(t, "makespan_sec", noisy, 11.5)
	if tr.Verdict != VerdictOK {
		t.Fatalf("noisy-baseline verdict = %s, want ok (mad=%v)", tr.Verdict, tr.MAD)
	}
	if tr.MAD == 0 {
		t.Fatal("noisy baseline has MAD 0")
	}
}

func TestTrendUsesNewestAsLatest(t *testing.T) {
	recs := recsWithMetric("makespan_sec", 10, 10, 10, 14)
	trends := Trend(recs, 10)
	if len(trends) != 1 || trends[0].Verdict != VerdictRegression {
		t.Fatalf("trend = %+v, want one regression", trends)
	}
	if trends[0].Latest != 14 || math.Abs(trends[0].Median-10) > 1e-12 {
		t.Fatalf("latest/median = %v/%v, want 14/10", trends[0].Latest, trends[0].Median)
	}
	if !AnyRegression(trends) {
		t.Fatal("AnyRegression missed the regression")
	}
}

func TestComparableFilters(t *testing.T) {
	a := Record{ConfigDigest: "d1", Build: Prov()}
	b := Record{ConfigDigest: "d2", Build: Prov()}
	other := Prov()
	other.Hostname = "elsewhere"
	c := Record{ConfigDigest: "d1", Build: other}
	got := Comparable([]Record{a, b, c}, "d1", Prov().HostKey())
	if len(got) != 1 || got[0].ConfigDigest != "d1" {
		t.Fatalf("Comparable kept %d records, want exactly the digest+host match", len(got))
	}
}

func TestTextSparkline(t *testing.T) {
	s := TextSparkline([]float64{0, 1, 2, 4})
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline %q has wrong length", s)
	}
	if s[len(s)-3:] != "█" {
		t.Fatalf("peak of %q is not the full block", s)
	}
}
