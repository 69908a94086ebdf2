package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"spacesim/internal/faults"
	"spacesim/internal/obs"
)

// validReport is a minimal sound report. Two ranks, makespan 10: 6 + 2
// compute seconds of 20, a quarter of the ranks' 16 clock seconds spent
// waiting, the rest in send overhead; the critical path tiles the makespan.
func validReport() *Report {
	return &Report{
		SchemaVersion: SchemaVersion, Ranks: 2, MakespanSec: 10,
		ParallelEfficiency: 0.4, IdleFraction: 0.25,
		CriticalPath: CriticalPath{TotalSec: 10, ByCategory: map[string]float64{CatCompute: 8, CatSend: 2}},
		RankMetrics: []obs.RankMetrics{
			{Rank: 0, Clock: 10, ComputeSec: 6, WaitSec: 1, SendSec: 3},
			{Rank: 1, Clock: 6, ComputeSec: 2, WaitSec: 3, SendSec: 1},
		},
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
		{
			// A rank whose clock moved by something no share records.
			name:    "clock not tiled",
			mutate:  func(r *Report) { r.RankMetrics[1].Clock = 7 },
			wantErr: "rank 1: compute 2 + disk 0 + send 1 + wait 3 = 6 s, but its clock is 7 s",
		},
	}
	for _, c := range cases {
		rep := validReport()
		c.mutate(rep)
		wantCheckErr(t, c.name, rep, c.wantErr)
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
		{"sending NIC above its rate", func(r *Report) {
			r.Links = []LinkStats{{Name: "nic-rx 3", MeanUtil: 0.1, PeakUtil: 2.05}, {Name: "nic-tx 5", MeanUtil: 0.1, PeakUtil: 3.04}}
		}, "link nic-tx 5: peak 3.04 of its capacity, above 1"},
		{"attempts", func(r *Report) {
			r.Faults = &faults.Recovery{Attempts: 1, Crashes: 1, CrashRanks: []int{0}, CrashTimesSec: []float64{1}}
		}, "faults: 1 attempts inconsistent with 1 crashes"},
		{"divergent recovery", func(r *Report) {
			diverged := false
			r.Faults = &faults.Recovery{Attempts: 1, RecoveredBitIdentical: &diverged}
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

// A schema-2 report still reads: its live block (the retired sampler's
// series dump) is an unknown key and is ignored.
func TestReadFileIgnoresV2LiveBlock(t *testing.T) {
	v2 := `{"schema_version": 2, "ranks": 2, "makespan_sec": 10,
		"parallel_efficiency": 0.4, "idle_fraction": 0.25,
		"critical_path": {"total_sec": 10, "by_category": {"compute": 8, "send": 2}},
		"live": {"schema_version": 1, "sample_every_sec": 0.25, "samples": 3, "capacity": 256,
			"host_sec": [0.1, 0.2, 0.3], "virtual_sec": [0, 1, 2],
			"series": [{"name": "progress.steps_done", "values": [0, 1, 2]}],
			"progress": {"state": "done", "step_fraction": 1, "steps_done": 2, "steps_total": 2, "eta_sec": -1, "samples": 3}}}`
	path := filepath.Join(t.TempDir(), "ANALYSIS.json")
	if err := os.WriteFile(path, []byte(v2), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadFile(path)
	if err != nil {
		t.Fatalf("v2 report with a live block refused: %v", err)
	}
	if rep.SchemaVersion != 2 || rep.MakespanSec != 10 {
		t.Fatalf("v2 report read as %+v", rep)
	}
}

// A schema-3 report's faults block reads into the recovery record and
// writes back with the same keys and values: the block spacesim
// -verify-recovery writes, key for key.
func TestFaultsBlockRoundTrip(t *testing.T) {
	const block = `{"attempts": 2, "crashes": 1, "crash_ranks": [0],
		"crash_times_sec": [0.03135203544073419], "restored_steps": [0],
		"replayed_steps": 2, "lost_virtual_sec": 0.033801074368584094,
		"total_virtual_sec": 0.10172500271911894, "degraded_link_sec": 0,
		"flapping_port_sec": 0.0018691062024490043, "checkpoint_writes": 3,
		"checkpoint_sec": 0.0017154285714285691, "corrupt_stripes": 1,
		"recovered_bit_identical": true}`
	doc, err := json.Marshal(validReport())
	if err != nil {
		t.Fatal(err)
	}
	doc = append(doc[:len(doc)-1], `, "faults": `+block+`}`...)
	dir := t.TempDir()
	in, out := filepath.Join(dir, "in.json"), filepath.Join(dir, "out.json")
	if err := os.WriteFile(in, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadFile(in)
	if err != nil {
		t.Fatalf("schema-3 report with a faults block refused: %v", err)
	}
	if f := rep.Faults; f == nil || f.Crashes != 1 || f.CorruptStripes != 1 || f.RecoveredBitIdentical == nil {
		t.Fatalf("faults block read as %+v", rep.Faults)
	}
	if err := rep.WriteJSON(out); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]any
	var got struct{ Faults map[string]any }
	if err := json.Unmarshal([]byte(block), &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(written, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Faults, want) {
		t.Fatalf("faults block written back as\n%v\nwant\n%v", got.Faults, want)
	}
}

// The bound covers sending NICs alone: a receiving NIC at 205% still passes
// until ROADMAP item 15(c) orders what many senders put on one link.
func TestCheckBoundsSendingNICsOnly(t *testing.T) {
	rep := validReport()
	rep.Links = []LinkStats{{Name: "nic-rx 3", MeanUtil: 0.1, PeakUtil: 2.05}, {Name: "nic-tx 5", MeanUtil: 0.1, PeakUtil: 0.76}}
	if err := rep.check(); err != nil {
		t.Fatal(err)
	}
}
