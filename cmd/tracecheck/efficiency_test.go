package main

import (
	"strings"
	"testing"

	"spacesim/internal/obs"
	"spacesim/internal/obs/analysis"
)

// Two ranks, makespan 10: 6 + 2 compute seconds of 20, a quarter of the
// ranks' 16 clock seconds spent waiting.
func validEfficiencyReport() *analysis.Report {
	return &analysis.Report{
		Ranks: 2, MakespanSec: 10,
		ParallelEfficiency: 0.4, IdleFraction: 0.25,
		RankMetrics: []obs.RankMetrics{
			{Rank: 0, Clock: 10, ComputeSec: 6, WaitSec: 1},
			{Rank: 1, Clock: 6, ComputeSec: 2, WaitSec: 3},
		},
	}
}

func TestEfficiencyErr(t *testing.T) {
	if err := efficiencyErr(validEfficiencyReport()); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(r *analysis.Report)
		wantErr string
	}{
		{"above one", func(r *analysis.Report) { r.ParallelEfficiency = 1.2 }, "outside [0, 1]"},
		{"negative", func(r *analysis.Report) { r.ParallelEfficiency = -0.1 }, "outside [0, 1]"},
		{
			// What mean/max of the final clocks printed: 100% beside idle 94.7%.
			name: "computing while waiting",
			mutate: func(r *analysis.Report) {
				r.ParallelEfficiency, r.IdleFraction, r.RankMetrics = 1, 0.947, nil
			},
			wantErr: "exceeds 1 - idle fraction",
		},
		{
			name:    "disagrees with the rank metrics",
			mutate:  func(r *analysis.Report) { r.ParallelEfficiency = 0.7 },
			wantErr: "rank_metrics give 8 s compute",
		},
		{"idle out of range", func(r *analysis.Report) { r.IdleFraction = 1.5 }, "idle fraction 1.5 outside"},
	}
	for _, c := range cases {
		rep := validEfficiencyReport()
		c.mutate(rep)
		if err := efficiencyErr(rep); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.wantErr)
		}
	}
}
