package main

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"spacesim/internal/obs/ledger"
)

// `ssbench trend -all-hosts` and the live server's /runs page print the
// same text for the same ledger.
func TestTrendAllHostsMatchesRunsPage(t *testing.T) {
	dir := t.TempDir()
	st, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	elsewhere := ledger.Prov()
	elsewhere.Hostname += "-elsewhere"
	for i, run := range []struct {
		exp   string
		build ledger.Provenance
		mk    float64
	}{
		{"analyze", ledger.Prov(), 10},
		{"faultsweep", ledger.Prov(), 3},
		{"analyze", ledger.Prov(), 14},
		{"analyze", elsewhere, 10},
	} {
		rec := &ledger.Record{
			Config:     ledger.Config{Tool: "ssbench", Experiment: run.exp, N: 600, Ranks: 3, Seed: 1},
			Build:      run.build,
			Metrics:    map[string]float64{"makespan_sec": run.mk},
			TimeUnixNS: int64(i + 1),
		}
		if _, err := st.Append(rec, nil); err != nil {
			t.Fatal(err)
		}
	}

	var trend strings.Builder
	if code := runTrend(&trend, []string{"-all-hosts", "-ledger", dir}); code != 0 {
		t.Fatalf("trend exit %d:\n%s", code, trend.String())
	}
	srv := httptest.NewServer(st.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(page) != trend.String() {
		t.Fatalf("/runs differs from ssbench trend -all-hosts:\n%s\ntrend:\n%s", page, trend.String())
	}
	if n := strings.Count(trend.String(), "\nconfig ") + 1; n != 3 {
		t.Errorf("%d groups, want 3 (two configs here, one elsewhere):\n%s", n, trend.String())
	}
	if !strings.Contains(trend.String(), "regression") {
		t.Errorf("the third run's +40%% makespan is not judged a regression:\n%s", trend.String())
	}

	// -gate turns that regression into exit 1; without -all-hosts only
	// this host's two groups print.
	var gated strings.Builder
	if code := runTrend(&gated, []string{"-ledger", dir, "-gate"}); code != 1 {
		t.Errorf("trend -gate exit %d, want 1", code)
	}
	if n := strings.Count(gated.String(), "config "); n != 2 {
		t.Errorf("this host's trend prints %d groups, want 2:\n%s", n, gated.String())
	}
}
