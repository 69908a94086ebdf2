package ledger

import (
	"strings"
	"testing"
)

// A ledger written before the BENCH_treecode.json record and its writers
// (`ssbench group`, `treebuild`, `kernels`) were deleted still trends,
// renders and verifies. Such a record's artifact is no longer sniffed, and
// the metrics it stored, whose gates went with their writer, read as info.
func TestLedgerReadsPreDeletionBenchRecords(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	legacy := map[string][]byte{"BENCH_treecode.json": []byte(benchJSON)}
	// The second group run is far past the bands its old gates had
	// (ns/interaction +50%, tree-build speedup -35%).
	for _, m := range []map[string]float64{
		{"makespan_sec": 12.5, "ns_per_interaction": 15.5, "treebuild_speedup": 2.6},
		{"makespan_sec": 12.5, "ns_per_interaction": 40, "treebuild_speedup": 1.0},
	} {
		if _, err := s.Append(testRecord("group", m), legacy); err != nil {
			t.Fatal(err)
		}
	}
	run := &Record{
		Config: Config{Tool: "spacesim", Experiment: "run", Scenario: "plummer",
			N: 600, Ranks: 3, Steps: 2, Workers: 1, Seed: 1},
		Build:   Prov(),
		Metrics: map[string]float64{"makespan_sec": 0.3, "gflops": 1.2},
	}
	if _, err := s.Append(run, map[string][]byte{"ANALYSIS.json": []byte(analysisJSON)}); err != nil {
		t.Fatal(err)
	}

	recs, err := s.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	verdicts := map[string]Verdict{}
	for _, tr := range Trend(recs[:2], 10) {
		verdicts[tr.Name] = tr.Verdict
	}
	for name, want := range map[string]Verdict{
		"makespan_sec":       VerdictOK,
		"ns_per_interaction": VerdictInfo,
		"treebuild_speedup":  VerdictInfo,
	} {
		if verdicts[name] != want {
			t.Errorf("group record %s verdict = %q, want %q", name, verdicts[name], want)
		}
	}
	if tr := Trend(recs[2:], 10); len(tr) != 2 {
		t.Errorf("spacesim run trends %d metrics, want 2", len(tr))
	}

	var sb strings.Builder
	if err := s.RenderIndexHTML(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ssbench group", "spacesim run", "ns_per_interaction", "treebuild_speedup"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("dashboard missing %q", want)
		}
	}

	for _, r := range recs {
		for name, digest := range r.Artifacts {
			if _, err := s.ReadBlob(digest); err != nil {
				t.Errorf("record %s artifact %s: %v", r.ID, name, err)
			}
		}
	}
	if k := SniffKind([]byte(benchJSON)); k != KindUnknown {
		t.Errorf("legacy bench artifact sniffed as %s, want %s", k, KindUnknown)
	}
}
