// Package obs is the observability layer of the simulator: a lightweight
// metrics registry (typed counters and gauges, cheap enough to stay on by
// default and safe under the host's parallel loops) and an opt-in event log
// that records per-rank spans and messages in *virtual* time, read by the
// analysis report and written out as Chrome trace_event JSON.
//
// Two invariants make instrumentation safe to leave enabled:
//
//  1. Observation never perturbs virtual time. Every hook reads a rank's
//     clock; none advances it. A run with retention on is bit-identical to
//     a run with it off.
//  2. A registry snapshot is a function of the run. Counters only Add,
//     histograms count into buckets and fold their minimum and maximum,
//     and gauges fold with Max or Add whole numbers, so concurrent updates
//     from rank goroutines and host loops commute exactly, and nothing the
//     registry holds is measured on the host clock. The one float sum that
//     would not commute, a histogram's sum of virtual seconds, never sees
//     host order: each rank observes into its own histograms and mp merges
//     them into the registry in rank order once the ranks are done.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
)

// MetricsSchemaVersion stamps the metrics snapshot JSON.
//
//	1 — counters, gauges, per-rank breakdowns
//	2 — adds histograms (message latency, collective sizes, list lengths)
//	3 — adds text metrics (progress phase/state strings)
const MetricsSchemaVersion = 3

// Counter is a monotonically accumulating int64 metric.
type Counter struct{ v atomic.Int64 }

// Add accumulates n (concurrency-safe, order-independent).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric folded with order-independent operations
// (Add for sums, Max for high-water marks).
type Gauge struct{ bits atomic.Uint64 }

// Add accumulates v into the gauge (atomic compare-and-swap loop).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64frombits(old) + v
		if g.bits.CompareAndSwap(old, math.Float64bits(nv)) {
			return
		}
	}
}

// Max folds v in with the maximum operation.
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Text is a string metric holding a last-writer-wins status value (current
// phase, run state). Like the numeric metrics it is safe for concurrent use
// and a no-op on a nil receiver; unlike them it is not order-independent —
// treat it as a status register, not an aggregate.
type Text struct{ v atomic.Value }

// Set stores s as the current value.
func (t *Text) Set(s string) {
	if t == nil {
		return
	}
	t.v.Store(s)
}

// Value returns the current value ("" before the first Set).
func (t *Text) Value() string {
	if t == nil {
		return ""
	}
	s, _ := t.v.Load().(string)
	return s
}

// Registry is a named set of counters and gauges. Lookup is get-or-create;
// callers hold the returned pointer for hot paths.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	texts      map[string]*Text
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		texts:      map[string]*Text{},
	}
}

// Counter returns the named counter, creating it on first use. Safe on a
// nil registry (returns a nil Counter whose methods are no-ops).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Safe on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. Safe on
// a nil registry (returns a nil Histogram whose methods are no-ops).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Text returns the named text metric, creating it on first use. Safe on a
// nil registry (returns a nil Text whose methods are no-ops).
func (r *Registry) Text(name string) *Text {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.texts[name]
	if !ok {
		t = &Text{}
		r.texts[name] = t
	}
	return t
}

// TextSnapshots returns the current value of every text metric that has
// been set.
func (r *Registry) TextSnapshots() map[string]string {
	out := map[string]string{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, t := range r.texts {
		if s := t.Value(); s != "" {
			out[n] = s
		}
	}
	return out
}

// Snapshot returns the current values of every metric, sorted by name via
// the map key order of encoding/json (deterministic output).
func (r *Registry) Snapshot() (counters map[string]int64, gauges map[string]float64) {
	counters = map[string]int64{}
	gauges = map[string]float64{}
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, c := range r.counters {
		counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		gauges[n] = g.Value()
	}
	return
}

// HistogramSnapshots summarizes every histogram with at least one
// observation.
func (r *Registry) HistogramSnapshots() map[string]HistogramSnapshot {
	out := map[string]HistogramSnapshot{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, h := range r.histograms {
		if s := h.Snapshot(); s.Count > 0 {
			out[n] = s
		}
	}
	return out
}

// RankMetrics is the per-rank virtual-time breakdown of a run. The fields
// are written only by the owning rank's goroutine during the run, or by
// mp.Run's fold after its ranks are done, and read after mp.Run returns, so
// no locking is needed.
type RankMetrics struct {
	Rank int `json:"rank"`
	// Clock is the rank's final virtual clock in seconds.
	Clock float64 `json:"clock"`
	// ComputeSec is virtual time advanced by roofline compute charges.
	ComputeSec float64 `json:"compute_sec"`
	// WaitSec is virtual time the clock jumped forward to message arrivals
	// (time the rank would have spent blocked in a receive).
	WaitSec float64 `json:"wait_sec"`
	// SendSec is per-message sender-side software overhead.
	SendSec float64 `json:"send_sec"`
	// CollectiveSec is wall-span virtual time inside collective operations
	// (its interior compute/wait/send is also counted in those fields).
	CollectiveSec float64 `json:"collective_sec"`
	// DiskSec is virtual time charged to local-disk streaming I/O.
	DiskSec float64 `json:"disk_sec"`
	// Messages and Bytes count messages this rank sent; mp.Run's fold adds
	// them from the rank's send record once the run's ranks are done.
	Messages int64 `json:"messages"`
	Bytes    int64 `json:"bytes"`
}

// Obs couples one run's registry, per-rank metrics, and optional event
// log. One Obs may observe several mp.Run invocations (e.g. a benchmark
// sweep): per-rank accumulators and event buffers are reused by rank id.
type Obs struct {
	Reg    *Registry
	Events *EventLog // nil unless retention is on (New(true) or EnableEvents)

	mu    sync.Mutex
	ranks []*RankObs

	progress progressOnce
}

// New returns an Obs with metrics enabled and, if trace is set, event
// retention (which the trace is written from).
func New(trace bool) *Obs {
	o := &Obs{Reg: NewRegistry()}
	if trace {
		o.EnableEvents()
	}
	return o
}

// Rank returns the accumulator for the given rank id, creating it (and its
// event buffer) on first use. Called from the run setup goroutine; the
// returned RankObs is then owned by the rank's goroutine.
func (o *Obs) Rank(id int) *RankObs {
	o.mu.Lock()
	defer o.mu.Unlock()
	for len(o.ranks) <= id {
		o.ranks = append(o.ranks, nil)
	}
	if o.ranks[id] == nil {
		ro := &RankObs{M: RankMetrics{Rank: id}}
		if o.Events != nil {
			ro.E = o.Events.rank(id)
		}
		o.ranks[id] = ro
	}
	return o.ranks[id]
}

// RankMetrics returns the per-rank breakdowns recorded so far, in rank
// order. Call after mp.Run returns.
func (o *Obs) RankMetrics() []RankMetrics {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]RankMetrics, 0, len(o.ranks))
	for _, ro := range o.ranks {
		if ro != nil {
			out = append(out, ro.M)
		}
	}
	return out
}

// MetricsSnapshot is the JSON shape of a metrics dump.
type MetricsSnapshot struct {
	SchemaVersion int                          `json:"schema_version"`
	Counters      map[string]int64             `json:"counters"`
	Gauges        map[string]float64           `json:"gauges"`
	Histograms    map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Texts         map[string]string            `json:"texts,omitempty"`
	Ranks         []RankMetrics                `json:"ranks"`
}

// Snapshot captures the registry and per-rank breakdowns. Rank goroutines
// write their breakdowns without locks, so call it after mp.Run returns.
func (o *Obs) Snapshot() MetricsSnapshot {
	s := o.Reg.MetricsSnapshot()
	s.Ranks = o.RankMetrics()
	return s
}

// MetricsSnapshot captures the registry alone, without per-rank
// breakdowns; unlike Obs.Snapshot it is safe while a run is in flight.
func (r *Registry) MetricsSnapshot() MetricsSnapshot {
	c, g := r.Snapshot()
	return MetricsSnapshot{
		SchemaVersion: MetricsSchemaVersion,
		Counters:      c,
		Gauges:        g,
		Histograms:    r.HistogramSnapshots(),
		Texts:         r.TextSnapshots(),
	}
}

// WriteMetrics writes the metrics snapshot as indented JSON.
func (o *Obs) WriteMetrics(w io.Writer) error {
	data, err := json.MarshalIndent(o.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteMetricsFile dumps the metrics snapshot to path.
func (o *Obs) WriteMetricsFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := o.WriteMetrics(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteTraceFile writes the event log to path as a Chrome trace; no-op
// without retention.
func (o *Obs) WriteTraceFile(path string) error {
	if o.Events == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := o.Events.writeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// StartProfiles starts the host's CPU profile into the file cpu, when set,
// and returns the function that stops it and, when mem is set, writes a
// heap profile after a GC into the file mem. A failure goes to fail as an
// error that names the profile.
func StartProfiles(cpu, mem string, fail func(error)) (stop func()) {
	var cf *os.File
	if cpu != "" {
		var err error
		if cf, err = os.Create(cpu); err == nil {
			err = pprof.StartCPUProfile(cf)
		}
		if err != nil {
			fail(fmt.Errorf("cpuprofile: %w", err))
		}
	}
	return func() {
		if cf != nil {
			pprof.StopCPUProfile()
			if err := cf.Close(); err != nil {
				fail(fmt.Errorf("cpuprofile: %w", err))
			}
		}
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err == nil {
			runtime.GC()
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fail(fmt.Errorf("memprofile: %w", err))
		}
	}
}

// RankObs is one rank's observation handle: metric accumulators owned by
// the rank goroutine, and its event buffer (nil without retention).
type RankObs struct {
	M RankMetrics
	E *RankEvents
}

// Observing reports whether spans are retained; callers may skip span
// bookkeeping entirely when false.
func (ro *RankObs) Observing() bool { return ro != nil && ro.E != nil }

// Span records a complete virtual-time span in the rank's event buffer;
// no-op without retention. Purely observational: never touches the clock.
func (ro *RankObs) Span(cat, name string, t0, t1 float64) {
	ro.Async(cat, name, 0, t0, t1)
}

// Async records a virtual-time span keyed by id: a nonzero id marks one
// that may overlap others on the rank's row (the trace draws it as a
// nestable async slice), id 0 a complete span; no-op without retention.
func (ro *RankObs) Async(cat, name string, id int64, t0, t1 float64) {
	if ro == nil || ro.E == nil {
		return
	}
	ro.E.Spans = append(ro.E.Spans, SpanEvent{Cat: cat, Name: name, T0: t0, T1: t1, ID: id})
}
