package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hits")
	g := reg.Gauge("peak")
	sum := reg.Gauge("sum")
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(2)
				g.Max(float64(w*per + i))
				sum.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 2*workers*per {
		t.Fatalf("counter = %d, want %d", got, 2*workers*per)
	}
	if got := g.Value(); got != float64(workers*per-1) {
		t.Fatalf("gauge max = %v, want %v", got, workers*per-1)
	}
	if got := sum.Value(); got != 0.5*workers*per {
		t.Fatalf("gauge sum = %v, want %v", got, 0.5*workers*per)
	}
	// get-or-create returns the same instance
	if reg.Counter("hits") != c {
		t.Fatal("Counter lookup did not return the existing counter")
	}
}

func TestNilSafety(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Add(1)
	reg.Gauge("y").Max(1)
	var ro *RankObs
	ro.Span("c", "n", 0, 1)
	ro.Async("c", "n", 1, 0, 1)
	var tr *Track
	tr.Span("c", "n", 0, 1)
	c, g := reg.Snapshot()
	if len(c) != 0 || len(g) != 0 {
		t.Fatal("nil registry snapshot should be empty")
	}
}

func TestMetricsSnapshotJSON(t *testing.T) {
	o := New(false)
	o.Reg.Counter("core.fetches").Add(7)
	o.Reg.Gauge("core.max_imbalance").Max(0.5)
	ro := o.Rank(0)
	ro.M.ComputeSec = 1.25
	ro.M.WaitSec = 0.75
	ro.M.Clock = 2.0
	o.Rank(1).M.Clock = 1.5

	var buf bytes.Buffer
	if err := o.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	if snap.SchemaVersion != MetricsSchemaVersion {
		t.Fatalf("schema_version = %d, want %d", snap.SchemaVersion, MetricsSchemaVersion)
	}
	if snap.Counters["core.fetches"] != 7 {
		t.Fatalf("counters = %v", snap.Counters)
	}
	if len(snap.Ranks) != 2 || snap.Ranks[0].ComputeSec != 1.25 || snap.Ranks[1].Clock != 1.5 {
		t.Fatalf("ranks = %+v", snap.Ranks)
	}
	// Rank is get-or-create: same accumulator back.
	if o.Rank(0) != ro {
		t.Fatal("Rank(0) did not return the existing accumulator")
	}
}

func TestTraceJSONShape(t *testing.T) {
	tr := NewTracer()
	r0 := tr.Track(PidRanks, 0, "rank 0")
	r0.Span("compute", "charge", 0.001, 0.002)
	r0.Span("wait", "recv", 0.002, 0.004)
	r0.Async("fetch", "cell", 42, 0.001, 0.003)
	net := tr.Track(PidNet, 3, "module 3")
	net.Async("net", "msg", 7, 0.0, 0.001)
	// same (pid, tid) returns the same track
	if tr.Track(PidRanks, 0, "other") != r0 {
		t.Fatal("Track lookup did not return the existing track")
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	var complete, async, meta int
	for _, ev := range tf.TraceEvents {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "X":
			complete++
			if ev["dur"].(float64) <= 0 {
				t.Fatalf("complete event without duration: %v", ev)
			}
		case "b", "e":
			async++
			if ev["id"] == nil {
				t.Fatalf("async event without id: %v", ev)
			}
		case "M":
			meta++
		}
		if _, ok := ev["ts"]; !ok && ph != "M" {
			t.Fatalf("event without ts: %v", ev)
		}
	}
	if complete != 2 || async != 4 || meta < 4 {
		t.Fatalf("event mix: complete=%d async=%d meta=%d", complete, async, meta)
	}
	// Microsecond conversion: 1 ms span starts at 1000 us.
	found := false
	for _, ev := range tf.TraceEvents {
		if ev["name"] == "charge" && ev["ts"].(float64) == 1000 {
			found = true
		}
	}
	if !found {
		t.Fatal("virtual seconds were not converted to microseconds")
	}
}

func TestTextMetric(t *testing.T) {
	var nilR *Registry
	if nilR.Text("x") != nil {
		t.Fatal("nil registry Text should be nil")
	}
	var nilT *Text
	nilT.Set("a") // must not panic
	if nilT.Value() != "" {
		t.Fatal("nil Text.Value")
	}

	r := NewRegistry()
	tx := r.Text("t")
	if r.Text("t") != tx {
		t.Fatal("Text lookup is not get-or-create")
	}
	tx.Set("phase-1")
	tx.Set("phase-2")
	if tx.Value() != "phase-2" {
		t.Fatalf("text = %q", tx.Value())
	}
	if got := r.TextSnapshots(); got["t"] != "phase-2" {
		t.Fatalf("TextSnapshots = %v", got)
	}
}

func TestProgressPublisher(t *testing.T) {
	var nilP *Progress
	nilP.SetTotal(5)
	nilP.StepDone(1, 0.1)
	nilP.Phase("x")
	nilP.State("y")
	nilP.Checkpoint()
	nilP.Recovery()

	var nilO *Obs
	if nilO.Progress() != nil {
		t.Fatal("nil Obs.Progress should be nil")
	}

	o := New(false)
	p := o.Progress()
	if p == nil || p != o.Progress() {
		t.Fatal("Progress not cached")
	}
	p.SetTotal(10)
	p.StepDone(3, 1.5)
	p.StepDone(2, 1.0) // rollback: published values must not regress
	p.Phase("step")
	p.State("running")
	p.Checkpoint()
	p.Recovery()
	_, gauges := o.Reg.Snapshot()
	if gauges[ProgressStepsTotal] != 10 || gauges[ProgressStepsDone] != 3 || gauges[ProgressVirtualSec] != 1.5 {
		t.Fatalf("gauges: %v", gauges)
	}
	snap := o.Snapshot()
	if snap.SchemaVersion != 3 {
		t.Fatalf("schema version %d", snap.SchemaVersion)
	}
	if snap.Texts[ProgressPhase] != "step" || snap.Texts[ProgressState] != "running" {
		t.Fatalf("texts: %v", snap.Texts)
	}
	if snap.Counters[ProgressCheckpoints] != 1 || snap.Counters[ProgressRecoveries] != 1 {
		t.Fatalf("counters: %v", snap.Counters)
	}
}
