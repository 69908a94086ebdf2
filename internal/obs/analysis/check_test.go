package analysis

import (
	"path/filepath"
	"strings"
	"testing"

	"spacesim/internal/obs"
	"spacesim/internal/obs/live"
)

// validReport is a minimal sound report. Two ranks, makespan 10: 6 + 2
// compute seconds of 20, a quarter of the ranks' 16 clock seconds spent
// waiting; the critical path tiles the makespan; the live block is
// validDump's.
func validReport() *Report {
	return &Report{
		SchemaVersion: SchemaVersion, Ranks: 2, MakespanSec: 10,
		ParallelEfficiency: 0.4, IdleFraction: 0.25,
		CriticalPath: CriticalPath{TotalSec: 10, ByCategory: map[string]float64{CatCompute: 8, CatSend: 2}},
		RankMetrics: []obs.RankMetrics{
			{Rank: 0, Clock: 10, ComputeSec: 6, WaitSec: 1},
			{Rank: 1, Clock: 6, ComputeSec: 2, WaitSec: 3},
		},
		Live: validDump(),
	}
}

// validDump builds a minimal sound live block; each case mutates one
// aspect and asserts the precise diagnostic check produces.
func validDump() *live.Dump {
	return &live.Dump{
		SchemaVersion:  1,
		SampleEverySec: 0.25,
		Samples:        3,
		Capacity:       256,
		HostSec:        []float64{0.1, 0.2, 0.3},
		VirtualSec:     []float64{0, 1, 2},
		Series: []live.SeriesDump{
			{Name: "progress.fraction", Values: []float64{0.1, 0.5, 1}},
		},
		Progress: live.ProgressSnapshot{StepFraction: 1, StepsDone: 2, StepsTotal: 2, ETASec: -1},
	}
}

// wantCheckErr fails t unless check refuses rep with an error containing
// want.
func wantCheckErr(t *testing.T, name string, rep *Report, want string) {
	t.Helper()
	if err := rep.check(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("%s: got %v, want an error containing %q", name, err, want)
	}
}

func TestCheckEfficiency(t *testing.T) {
	if err := validReport().check(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(r *Report)
		wantErr string
	}{
		{"above one", func(r *Report) { r.ParallelEfficiency = 1.2 }, "outside [0, 1]"},
		{"negative", func(r *Report) { r.ParallelEfficiency = -0.1 }, "outside [0, 1]"},
		{
			// What mean/max of the final clocks printed: 100% beside idle 94.7%.
			name: "computing while waiting",
			mutate: func(r *Report) {
				r.ParallelEfficiency, r.IdleFraction, r.RankMetrics = 1, 0.947, nil
			},
			wantErr: "exceeds 1 - idle fraction",
		},
		{
			name:    "disagrees with the rank metrics",
			mutate:  func(r *Report) { r.ParallelEfficiency = 0.7 },
			wantErr: "rank_metrics give 8 s compute",
		},
		{"idle out of range", func(r *Report) { r.IdleFraction = 1.5 }, "idle fraction 1.5 outside"},
	}
	for _, c := range cases {
		rep := validReport()
		c.mutate(rep)
		wantCheckErr(t, c.name, rep, c.wantErr)
	}
}

func TestCheckLiveValid(t *testing.T) {
	if err := checkLive(validDump()); err != nil {
		t.Fatalf("valid dump rejected: %v", err)
	}
}

func TestCheckLiveEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(d *live.Dump)
		wantErr string
	}{
		{
			// A sampler that never ticked must not pass as a live block.
			name:    "zero-sample dump",
			mutate:  func(d *live.Dump) { d.Samples = 0 },
			wantErr: "live: 0 samples, want > 0",
		},
		{
			// One retained sample is legal — the monotonicity loops are
			// vacuous but the lockstep rule still binds every series.
			name: "single-sample series out of lockstep",
			mutate: func(d *live.Dump) {
				d.Samples = 1
				d.HostSec = []float64{0.1}
				d.VirtualSec = []float64{0}
				d.Series = []live.SeriesDump{{Name: "mp.msg.count", Values: []float64{1, 2}}}
			},
			wantErr: "live: series mp.msg.count has 2 samples, time columns have 1",
		},
		{
			name:    "missing virtual time column",
			mutate:  func(d *live.Dump) { d.VirtualSec = nil },
			wantErr: "live: virtual_sec has 0 samples, host_sec has 3",
		},
		{
			name:    "missing host time column",
			mutate:  func(d *live.Dump) { d.HostSec = nil },
			wantErr: "live: 0 retained samples outside (0, capacity 256]",
		},
		{
			name:    "retained window exceeds capacity",
			mutate:  func(d *live.Dump) { d.Capacity = 2 },
			wantErr: "live: 3 retained samples outside (0, capacity 2]",
		},
		{
			name:    "host clock runs backwards",
			mutate:  func(d *live.Dump) { d.HostSec[2] = 0.15 },
			wantErr: "live: host_sec not monotone at sample 2 (0.15 < 0.2)",
		},
		{
			name:    "virtual clock runs backwards",
			mutate:  func(d *live.Dump) { d.VirtualSec[1] = -1 },
			wantErr: "live: virtual_sec not monotone at sample 1 (-1 < 0)",
		},
		{
			name:    "anonymous series",
			mutate:  func(d *live.Dump) { d.Series[0].Name = "" },
			wantErr: "live: series with empty name",
		},
		{
			name:    "step fraction above one",
			mutate:  func(d *live.Dump) { d.Progress.StepFraction = 1.5 },
			wantErr: "live: step_fraction 1.5 outside [0, 1]",
		},
		{
			name:    "negative eta sentinel",
			mutate:  func(d *live.Dump) { d.Progress.ETASec = -0.5 },
			wantErr: "live: eta_sec -0.5, want -1 (unknown) or >= 0",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := validReport()
			tc.mutate(rep.Live)
			wantCheckErr(t, tc.name, rep, tc.wantErr)
		})
	}
}

// The critical path, phase, histogram, link and fault invariants, one
// broken at a time.
func TestCheckPathAndSummaries(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(r *Report)
		wantErr string
	}{
		{"path short of makespan", func(r *Report) { r.CriticalPath.TotalSec = 9 }, "critical path 9 does not equal makespan 10"},
		{"negative category", func(r *Report) { r.CriticalPath.ByCategory[CatWait] = -1 }, `category "wait" negative`},
		{"categories short", func(r *Report) { delete(r.CriticalPath.ByCategory, CatSend) }, "categories sum to 8, want 10"},
		{"phase max below mean", func(r *Report) { r.Phases = []PhaseStats{{Name: "walk", MeanSec: 2, MaxSec: 1}} }, "phase walk: mean 2 max 1"},
		{"phase idle", func(r *Report) { r.Phases = []PhaseStats{{Name: "walk", IdleFraction: 2}} }, "phase walk: idle fraction 2"},
		{"histogram order", func(r *Report) {
			r.Histograms = map[string]obs.HistogramSnapshot{"lat": {Count: 2, Min: 1, P50: 3, P95: 2, P99: 3, Max: 3}}
		}, "histogram lat: inconsistent summary"},
		{"link peak below mean", func(r *Report) { r.Links = []LinkStats{{Name: "trunk", MeanUtil: 0.5, PeakUtil: 0.1}} }, "link trunk: bytes 0 mean 0.5 peak 0.1"},
		{"link busy", func(r *Report) { r.Links = []LinkStats{{Name: "trunk", BusyFraction: 1.5}} }, "link trunk: busy fraction 1.5"},
		{"attempts", func(r *Report) {
			r.Faults = &FaultSummary{Attempts: 1, Crashes: 1, CrashRanks: []int{0}, CrashTimesSec: []float64{1}}
		}, "faults: 1 attempts inconsistent with 1 crashes"},
		{"divergent recovery", func(r *Report) {
			diverged := false
			r.Faults = &FaultSummary{Attempts: 1, RecoveredBitIdentical: &diverged}
		}, "recovery verification recorded a divergent state"},
	}
	for _, c := range cases {
		rep := validReport()
		c.mutate(rep)
		wantCheckErr(t, c.name, rep, c.wantErr)
	}
}

// WriteJSON refuses a report that breaks its own invariants and writes
// nothing.
func TestWriteJSONRefusesBrokenReport(t *testing.T) {
	rep := validReport()
	rep.CriticalPath.TotalSec = 9
	path := filepath.Join(t.TempDir(), "ANALYSIS.json")
	if err := rep.WriteJSON(path); err == nil || !strings.Contains(err.Error(), "does not equal makespan") {
		t.Fatalf("WriteJSON = %v, want the critical-path refusal", err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("a refused report was written")
	}
}
