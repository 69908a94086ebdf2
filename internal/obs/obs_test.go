package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
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
	var o *Obs
	o.HostSpan(HostWalks, "c", "n", o.HostNow(), 1)
	o.NetModules(2)
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

// The trace is written from the event log: rank spans as complete slices,
// a fetch as an async pair under its own id, and each send to another rank
// as an async slice on its source module's row, id rank<<40 | n for the
// n-th such send, from departure to arrival. Self-sends draw nothing, and
// an idle module still gets its named row.
func TestTraceJSONShape(t *testing.T) {
	o := New(true)
	o.NetModules(4)
	r1 := o.Rank(1)
	r1.Span("compute", "charge", 0.001, 0.002)
	r1.Async("fetch", "fetch", 42, 0.001, 0.003)
	r1.MsgSent(SendEvent{Dst: 1, Module: 3, Bytes: 8, T0: 0.002, Depart: 0.0025, Arrive: 0.0025})
	r1.MsgSent(SendEvent{Dst: 0, Module: 3, Bytes: 8, T0: 0.003, Depart: 0.0035, Arrive: 0.005})
	o.HostSpan(HostBuild, "htree", "key", 0, 0.5)

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := o.WriteTraceFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []event `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	var got []string
	rows := map[[2]int]string{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "M" {
			if ev.Name == "thread_name" {
				rows[[2]int{ev.Pid, ev.Tid}] = ev.Args["name"].(string)
			}
			continue
		}
		got = append(got, fmt.Sprintf("%d/%d %s %s %s %g+%g", ev.Pid, ev.Tid, ev.Ph, ev.Name, ev.ID, ev.Ts, ev.Dur))
	}
	want := []string{
		"1/1 X charge  1000+1000",
		"1/1 b fetch 0x2a 1000+0",
		"1/1 e fetch 0x2a 3000+0",
		"2/3 b msg 0x10000000001 3500+0",
		"2/3 e msg 0x10000000001 5000+0",
		"4/4 X key  0+500000",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("trace events:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for row, name := range map[[2]int]string{
		{PidRanks, 1}: "rank 1", {PidNet, 0}: "module 0", {PidNet, 3}: "module 3", {PidHost, 4}: "htree build",
	} {
		if rows[row] != name {
			t.Errorf("row %v named %q, want %q", row, rows[row], name)
		}
	}

	// Without retention there is no trace, and no file is written.
	if err := New(false).WriteTraceFile(path + ".off"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".off"); !os.IsNotExist(err) {
		t.Fatalf("untraced run wrote a trace: %v", err)
	}
}

// Host spans come from several rank goroutines at once (each builds its
// own tree); every one reaches the trace, on its named row.
func TestHostSpansConcurrent(t *testing.T) {
	o := New(true)
	var wg sync.WaitGroup
	const workers, per = 4, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				o.HostSpan(HostBuild, "htree", "key", o.HostNow(), o.HostNow())
			}
		}()
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := o.Events.writeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	spans, rows := 0, 0
	for _, ev := range tf.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.Pid == PidHost && ev.Tid == int(HostBuild):
			spans++
		case ev.Name == "thread_name" && ev.Args["name"] == "htree build":
			rows++
		}
	}
	if spans != workers*per || rows != 1 {
		t.Fatalf("%d host spans on %d htree build rows, want %d on 1", spans, rows, workers*per)
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
