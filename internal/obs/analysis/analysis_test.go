package analysis_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spacesim/internal/core"
	"spacesim/internal/faults"
	"spacesim/internal/machine"
	"spacesim/internal/netsim"
	"spacesim/internal/obs"
	"spacesim/internal/obs/analysis"
)

// handTrace builds a 3-rank trace whose critical path is known by
// construction:
//
//	rank 0: compute [0,4], send overhead [4,4.5]; msg to rank 1 departs
//	        at 4, arrives at 6; final clock 4.5
//	rank 1: compute [0,2], blocked wait [2,6]; compute [6,9], send
//	        overhead [9,9.5]; msg to rank 2 departs 9, arrives 10; 9.5
//	rank 2: compute [0,1], blocked wait [1,10]; compute [10,12]; clock 12
//
// Longest path: r0 compute 4 -> edge (4,6] -> r1 compute (6,9] ->
// edge (9,10] -> r2 compute (10,12]. Total 12 = makespan, 2 hops,
// compute 9s, transfer 3s.
func handTrace() *obs.Obs {
	o := obs.New(false).EnableEvents()

	r0 := o.Rank(0)
	r0.Span("phase", "step", 0, 4.5)
	r0.Span("compute", "compute", 0, 4)
	r0.Span("comm", "send", 4, 4.5)
	r0.MsgSent(obs.SendEvent{Dst: 1, Bytes: 100, T0: 4, Depart: 4.5, Arrive: 6})
	r0.M.Clock = 4.5
	r0.M.ComputeSec = 4
	r0.M.SendSec = 0.5

	r1 := o.Rank(1)
	r1.Span("phase", "step", 0, 9.5)
	r1.Span("compute", "compute", 0, 2)
	r1.Span("comm", "wait", 2, 6)
	r1.MsgRecvd(0, 100, 4, 6, 2, true)
	r1.Span("compute", "compute", 6, 9)
	r1.Span("comm", "send", 9, 9.5)
	r1.MsgSent(obs.SendEvent{Dst: 2, Bytes: 200, T0: 9, Depart: 9.5, Arrive: 10})
	r1.M.Clock = 9.5
	r1.M.ComputeSec = 5
	r1.M.WaitSec = 4
	r1.M.SendSec = 0.5

	r2 := o.Rank(2)
	r2.Span("phase", "step", 0, 12)
	r2.Span("compute", "compute", 0, 1)
	r2.Span("comm", "wait", 1, 10)
	r2.MsgRecvd(1, 200, 9, 10, 1, true)
	r2.Span("compute", "compute", 10, 12)
	r2.M.Clock = 12
	r2.M.ComputeSec = 3
	r2.M.WaitSec = 9

	return o
}

func handCluster() machine.Cluster {
	return machine.Cluster{Name: "hand", Nodes: 3, Node: machine.SpaceSimulatorNode}
}

func TestCriticalPathHandBuilt(t *testing.T) {
	rep, err := analysis.Analyze(handTrace(), handCluster())
	if err != nil {
		t.Fatal(err)
	}
	if rep.MakespanSec != 12 {
		t.Fatalf("makespan = %v, want 12", rep.MakespanSec)
	}
	cp := rep.CriticalPath
	if cp.TotalSec != 12 {
		t.Fatalf("critical path total = %v, want makespan 12", cp.TotalSec)
	}
	if cp.Hops != 2 {
		t.Fatalf("hops = %d, want 2", cp.Hops)
	}
	if got := cp.ByCategory[analysis.CatCompute]; math.Abs(got-9) > 1e-12 {
		t.Fatalf("compute on path = %v, want 9", got)
	}
	if got := cp.ByCategory[analysis.CatSend]; math.Abs(got-3) > 1e-12 {
		t.Fatalf("send on path = %v, want 3", got)
	}

	// Segments must tile [0, makespan] contiguously and sum to the total.
	var sum float64
	cursor := 0.0
	for i, s := range cp.Segments {
		if s.T1 <= s.T0 {
			t.Fatalf("segment %d empty: %+v", i, s)
		}
		if math.Abs(s.T0-cursor) > 1e-12 {
			t.Fatalf("segment %d starts at %v, expected %v (gap or overlap)", i, s.T0, cursor)
		}
		cursor = s.T1
		sum += s.Dur()
	}
	if math.Abs(cursor-12) > 1e-12 || math.Abs(sum-12) > 1e-12 {
		t.Fatalf("segments end at %v sum %v, want 12", cursor, sum)
	}

	// The path visits ranks 0 -> 1 -> 2 in time order.
	wantRanks := []int{0, 0, 1, 1, 2}
	if len(cp.Segments) != len(wantRanks) {
		t.Fatalf("got %d segments %+v, want %d", len(cp.Segments), cp.Segments, len(wantRanks))
	}
	for i, s := range cp.Segments {
		if s.Rank != wantRanks[i] {
			t.Fatalf("segment %d on rank %d, want %d (%+v)", i, s.Rank, wantRanks[i], s)
		}
	}
	// Transfers carry the message metadata.
	if e := cp.Segments[1]; !e.Transfer || e.To != 1 || e.Bytes != 100 {
		t.Fatalf("first edge wrong: %+v", e)
	}

	// Everything sits inside the "step" phase.
	if got := cp.ByPhase["step"]; math.Abs(got-12) > 1e-12 {
		t.Fatalf("step phase on path = %v, want 12", got)
	}

	// Phase stats: step runs on all three ranks, max on rank 2.
	if len(rep.Phases) == 0 {
		t.Fatal("no phases")
	}
	ph := rep.Phases[0]
	if ph.Name != "step" || ph.Count != 3 {
		t.Fatalf("phase = %+v", ph)
	}
	wantMean := (4.5 + 9.5 + 12) / 3.0
	if math.Abs(ph.MeanSec-wantMean) > 1e-12 || ph.MaxSec != 12 || ph.MaxRank != 2 {
		t.Fatalf("phase stats = %+v", ph)
	}
	if math.Abs(ph.Imbalance-12/wantMean) > 1e-12 || math.Abs(ph.Efficiency-wantMean/12) > 1e-12 {
		t.Fatalf("imbalance/efficiency = %v/%v", ph.Imbalance, ph.Efficiency)
	}
	// Waits inside the phase: 4 + 9 of 26 total phase seconds.
	if math.Abs(ph.IdleFraction-13.0/26.0) > 1e-12 {
		t.Fatalf("idle fraction = %v, want 0.5", ph.IdleFraction)
	}

	// 4 + 5 + 3 compute seconds on 3 ranks over a makespan of 12 — not the
	// 72% that mean/max of the final clocks would report — and never more
	// than the time the ranks did not spend waiting.
	if math.Abs(rep.ParallelEfficiency-12.0/36.0) > 1e-12 {
		t.Fatalf("parallel efficiency = %v, want 1/3", rep.ParallelEfficiency)
	}
	if rep.ParallelEfficiency > 1-rep.IdleFraction {
		t.Fatalf("parallel efficiency %v exceeds 1 - idle fraction %v", rep.ParallelEfficiency, rep.IdleFraction)
	}
}

func TestAnalyzeRequiresEvents(t *testing.T) {
	o := obs.New(false) // no EnableEvents
	if _, err := analysis.Analyze(o, handCluster()); err == nil {
		t.Fatal("expected error without event retention")
	}
	if _, err := analysis.Analyze(nil, handCluster()); err == nil {
		t.Fatal("expected error for nil Obs")
	}
}

// linkCluster: 8 nodes, 4 ports per module, 1 module on switch A — ranks
// 0-3 on module 0 (switch A), ranks 4-7 on module 1 (switch B).
func linkCluster() machine.Cluster {
	topo := netsim.Topology{
		Nodes:           8,
		PortsPerModule:  4,
		ModulesSwitchA:  1,
		ModuleUplinkBps: 8e9,
		TrunkBps:        8e9,
		NICBps:          1e9,
		Efficiency:      0.5,
	}
	return machine.Cluster{
		Name:  "linktest",
		Nodes: 8,
		Node:  machine.SpaceSimulatorNode,
		Net:   netsim.MustNew(topo, netsim.Profile{Name: "test", LatencySec: 10e-6, PeakBps: 1e9}),
	}
}

func TestLinkUtilizationPinnedBytes(t *testing.T) {
	cl := linkCluster()
	o := obs.New(false).EnableEvents()

	// rank 0 -> 1: same module (NICs only), 1000 bytes over [0.0, 0.5].
	// rank 0 -> 4: cross module and cross switch, 2000 bytes over [0.5, 1.0].
	// rank 2 -> 2: self-send, must not touch any link.
	r0 := o.Rank(0)
	r0.Span("compute", "compute", 0, 1)
	r0.MsgSent(obs.SendEvent{Dst: 1, Bytes: 1000, Arrive: 0.5})
	r0.MsgSent(obs.SendEvent{Dst: 4, Bytes: 2000, T0: 0.5, Depart: 0.5, Arrive: 1.0})
	r0.M.Clock = 1
	r2 := o.Rank(2)
	r2.MsgSent(obs.SendEvent{Dst: 2, Bytes: 999})
	r2.M.Clock = 1

	rep, err := analysis.Analyze(o, cl)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]analysis.LinkStats{}
	for _, l := range rep.Links {
		byName[l.Name] = l
	}
	want := map[string]struct {
		bytes int64
		cap   float64
	}{
		"nic-tx 0":      {3000, 1e9},
		"nic-rx 1":      {1000, 1e9},
		"nic-rx 4":      {2000, 1e9},
		"module-up 0":   {2000, 8e9 * 0.5},
		"module-down 1": {2000, 8e9 * 0.5},
		"trunk":         {2000, 8e9 * 0.5},
	}
	if len(byName) != len(want) {
		t.Fatalf("got links %v, want %d of them", byName, len(want))
	}
	for name, w := range want {
		l, ok := byName[name]
		if !ok {
			t.Fatalf("missing link %q (have %v)", name, byName)
		}
		if l.Bytes != w.bytes {
			t.Errorf("%s: bytes = %d, want %d", name, l.Bytes, w.bytes)
		}
		if l.CapacityBps != w.cap {
			t.Errorf("%s: capacity = %v, want %v", name, l.CapacityBps, w.cap)
		}
		wantMean := float64(w.bytes) * 8 / (rep.MakespanSec * w.cap)
		if math.Abs(l.MeanUtil-wantMean) > 1e-12 {
			t.Errorf("%s: mean util = %v, want %v", name, l.MeanUtil, wantMean)
		}
	}
	// nic-tx 0 holds each message for its wire time alone, 8 and 16 µs at
	// 1 Gb/s from departures 0 and 0.5: bins 0 and 32 of 64, each carrying
	// its message's bits. The receiving NIC spreads its message over the
	// whole flight, the first half of the run.
	binCap := rep.MakespanSec / 64 * 1e9
	if l := byName["nic-tx 0"]; l.BusyFraction != 2.0/64 ||
		math.Abs(l.Timeline[0]-8000/binCap) > 1e-12 || math.Abs(l.Timeline[32]-16000/binCap) > 1e-12 {
		t.Errorf("nic-tx 0: busy fraction %v, bins 0 and 32 at %v and %v", l.BusyFraction, l.Timeline[0], l.Timeline[32])
	}
	if l := byName["nic-rx 1"]; l.BusyFraction != 0.5 {
		t.Errorf("nic-rx 1 busy fraction = %v, want 0.5", l.BusyFraction)
	}
	// trunk only carries the second message: first half of its timeline idle.
	if l := byName["trunk"]; l.BusyFraction != 0.5 {
		t.Errorf("trunk busy fraction = %v, want 0.5", l.BusyFraction)
	}
	for name, l := range byName {
		if len(l.Timeline) != 64 {
			t.Errorf("%s: %d timeline bins, want 64", name, len(l.Timeline))
		}
	}
}

func newRand() *rand.Rand { return rand.New(rand.NewSource(7)) }

// TestCriticalPathEqualsMakespan is the acceptance check: a real 2-module
// 8-rank treecode run, analyzed, must report a critical path whose total
// equals the run's virtual makespan.
func TestCriticalPathEqualsMakespan(t *testing.T) {
	cl := linkCluster()
	o := obs.New(false).EnableEvents()
	cl = cl.WithObs(o)

	ics := core.PlummerSphere(newRand(), 512, 1.0)
	res := core.Run(core.RunConfig{
		Cluster: cl, Procs: 8, Steps: 2,
		Opt: core.Options{Theta: 0.7, Eps: 0.01, DT: 1e-3, MaxLeaf: 16, Workers: 2},
	}, ics)

	rep, err := analysis.Analyze(o, cl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MakespanSec <= 0 {
		t.Fatalf("makespan = %v", rep.MakespanSec)
	}
	if math.Abs(rep.MakespanSec-res.ElapsedVirtual) > 1e-9*res.ElapsedVirtual {
		t.Fatalf("analysis makespan %v != run elapsed virtual %v", rep.MakespanSec, res.ElapsedVirtual)
	}
	cp := rep.CriticalPath
	if math.Abs(cp.TotalSec-rep.MakespanSec) > 1e-9*rep.MakespanSec {
		t.Fatalf("critical path total %v != makespan %v", cp.TotalSec, rep.MakespanSec)
	}
	// The segments and the by-category attribution must both account for
	// every virtual second of the path.
	var segSum, catSum float64
	cursor := 0.0
	for i, s := range cp.Segments {
		if math.Abs(s.T0-cursor) > 1e-9*rep.MakespanSec {
			t.Fatalf("segment %d starts at %v, previous ended at %v", i, s.T0, cursor)
		}
		cursor = s.T1
		segSum += s.Dur()
	}
	for _, v := range cp.ByCategory {
		catSum += v
	}
	if math.Abs(segSum-cp.TotalSec) > 1e-9*cp.TotalSec {
		t.Fatalf("segment sum %v != total %v", segSum, cp.TotalSec)
	}
	if math.Abs(catSum-cp.TotalSec) > 1e-9*cp.TotalSec {
		t.Fatalf("category sum %v != total %v", catSum, cp.TotalSec)
	}

	if rep.ParallelEfficiency <= 0 || rep.ParallelEfficiency > 1-rep.IdleFraction+1e-12 {
		t.Fatalf("parallel efficiency = %v with idle fraction %v", rep.ParallelEfficiency, rep.IdleFraction)
	}
	phases := map[string]bool{}
	for _, p := range rep.Phases {
		phases[p.Name] = true
		if p.Imbalance < 1-1e-9 {
			t.Fatalf("phase %s imbalance %v < 1", p.Name, p.Imbalance)
		}
	}
	for _, want := range []string{"step", "decompose", "tree-build", "walk"} {
		if !phases[want] {
			t.Fatalf("missing phase %q in %v", want, phases)
		}
	}
	// Cross-module traffic must show up on module and trunk links.
	links := map[string]analysis.LinkStats{}
	for _, l := range rep.Links {
		links[l.Name] = l
	}
	for _, want := range []string{"module-up 0", "module-down 1", "trunk", "nic-tx 0"} {
		l, ok := links[want]
		if !ok || l.Bytes == 0 {
			t.Fatalf("link %q missing or empty (links: %v)", want, links)
		}
	}
	if _, ok := rep.Histograms["mp.msg.latency_sec"]; !ok {
		t.Fatalf("missing message latency histogram (have %v)", rep.Histograms)
	}

	// Round-trip through JSON.
	path := filepath.Join(t.TempDir(), "ANALYSIS.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	back, err := analysis.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.MakespanSec != rep.MakespanSec || back.CriticalPath.TotalSec != cp.TotalSec {
		t.Fatal("JSON round-trip changed the report")
	}
	if out := rep.Render(); len(out) == 0 {
		t.Fatal("empty render")
	}
}

// ReadFile loads analysis reports only: a document that merely carries a
// schema_version — an empty one, a checkpoint-cadence sweep, an old treecode
// bench record — is refused with its path, so `ssbench diff` cannot pass two
// of them as an empty diff.
func TestReadFileRefusesOtherDocuments(t *testing.T) {
	dir := t.TempDir()
	rep, err := analysis.Analyze(handTrace(), handCluster())
	if err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "ANALYSIS.json")
	if err := rep.WriteJSON(good); err != nil {
		t.Fatal(err)
	}
	if _, err := analysis.ReadFile(good); err != nil {
		t.Fatalf("real report refused: %v", err)
	}
	for _, tc := range []struct{ name, doc string }{
		{"empty", `{"schema_version": 3}`},
		{"faultsweep", `{"schema_version": 2, "seed": 1, "ranks": 8, "bodies": 1024, "steps": 12,
			"baseline_virtual_sec": 0.4, "scheduled_crashes": 1,
			"entries": [{"interval_steps": 1, "crashes": 1, "attempts": 2, "recovered_bit_identical": true}]}`},
		{"bench-v8", `{"schema_version": 8, "n": 32768, "theta": 0.7,
			"results": [{"engine": "grouped", "workers": 1, "ns_per_interaction": 15.5}],
			"analysis": {"makespan_sec": 12.5, "critical_path_sec": 12.5, "parallel_efficiency": 0.9},
			"kernels": {"sinks": 64, "lengths": [16], "default_bit_identical": true}}`},
	} {
		path := filepath.Join(dir, tc.name+".json")
		if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := analysis.ReadFile(path); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: ReadFile error = %v, want a refusal naming %s", tc.name, err, path)
		}
	}
}

// ReadFile parses outside input and holds every invariant: any bytes give an
// error or a report that WriteJSON writes back and ReadFile reads again to
// the same bytes; no input panics.
func FuzzReadReport(f *testing.F) {
	rep, err := analysis.Analyze(handTrace(), handCluster())
	if err != nil {
		f.Fatal(err)
	}
	good, err := json.Marshal(rep)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{"schema_version": 2, "ranks": 1, "makespan_sec": 1,
		"critical_path": {"total_sec": 1, "by_category": {"compute": 1}}}`))
	f.Add([]byte(`{"schema_version": 3}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.json")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := analysis.ReadFile(in)
		if err != nil {
			return
		}
		once, twice := filepath.Join(dir, "once.json"), filepath.Join(dir, "twice.json")
		if err := rep.WriteJSON(once); err != nil {
			t.Fatalf("a report ReadFile accepted is refused by WriteJSON: %v", err)
		}
		back, err := analysis.ReadFile(once)
		if err != nil {
			t.Fatalf("a report WriteJSON wrote is refused by ReadFile: %v", err)
		}
		if err := back.WriteJSON(twice); err != nil {
			t.Fatal(err)
		}
		a, _ := os.ReadFile(once)
		b, _ := os.ReadFile(twice)
		if !bytes.Equal(a, b) {
			t.Fatalf("round trip changed the report:\n%s\nvs\n%s", a, b)
		}
	})
}

// Headline keeps the report's headline figures under the ledger's metric
// names and leaves zero values out.
func TestHeadline(t *testing.T) {
	rep := &analysis.Report{
		MakespanSec: 12.5, ParallelEfficiency: 0.91, IdleFraction: 0.04,
		Histograms: map[string]obs.HistogramSnapshot{"mp.msg.latency_sec": {Count: 10, P99: 0.0021}},
		Faults:     &faults.Recovery{CheckpointSec: 0.4, LostVirtualSec: 1.2},
	}
	want := map[string]float64{
		"makespan_sec":            12.5,
		"parallel_efficiency":     0.91,
		"idle_fraction":           0.04,
		"msg_latency_p99_sec":     0.0021,
		"checkpoint_overhead_sec": 0.4,
		"lost_virtual_sec":        1.2,
	}
	got := rep.Headline()
	if len(got) != len(want) {
		t.Errorf("Headline = %v, want %v", got, want)
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v, want %v", name, got[name], v)
		}
	}
	rep.IdleFraction, rep.Faults, rep.Histograms = 0, nil, nil
	if got := rep.Headline(); len(got) != 2 {
		t.Errorf("Headline kept zero values: %v", got)
	}
}
