package obs

import (
	"math"
	"sync"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Fatalf("empty: count=%d sum=%v mean=%v", h.Count(), h.Sum(), h.Mean())
	}
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty min/max: %v/%v", h.Min(), h.Max())
	}
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if q := h.Quantile(p); q != 0 {
			t.Fatalf("empty Quantile(%v) = %v", p, q)
		}
	}
	s := h.Snapshot()
	if s.Count != 0 || s.P50 != 0 || s.P99 != 0 {
		t.Fatalf("empty snapshot: %+v", s)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1) // must not panic
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("nil histogram should read as empty")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("nil Quantile")
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("nil snapshot: %+v", s)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram()
	h.Observe(42.5)
	if h.Count() != 1 || h.Sum() != 42.5 || h.Mean() != 42.5 {
		t.Fatalf("count=%d sum=%v", h.Count(), h.Sum())
	}
	if h.Min() != 42.5 || h.Max() != 42.5 {
		t.Fatalf("min/max %v/%v", h.Min(), h.Max())
	}
	// With one sample every quantile is clamped to the exact value.
	for _, p := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if q := h.Quantile(p); q != 42.5 {
			t.Fatalf("Quantile(%v) = %v, want 42.5", p, q)
		}
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	n := 10000
	for i := 1; i <= n; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != int64(n) {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != float64(n) {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	// Log-bucketed with 8 sub-buckets per octave: relative error under ~9%.
	for _, p := range []float64{0.5, 0.95, 0.99} {
		want := p * float64(n)
		got := h.Quantile(p)
		if rel := math.Abs(got-want) / want; rel > 0.09 {
			t.Fatalf("Quantile(%v) = %v, want ~%v (rel err %v)", p, got, want, rel)
		}
	}
	// Quantiles are monotone in p and clamped into [Min, Max].
	prev := h.Quantile(0)
	for p := 0.05; p <= 1.0; p += 0.05 {
		q := h.Quantile(p)
		if q < prev-1e-12 {
			t.Fatalf("Quantile not monotone at p=%v: %v < %v", p, q, prev)
		}
		if q < h.Min() || q > h.Max() {
			t.Fatalf("Quantile(%v) = %v outside [%v, %v]", p, q, h.Min(), h.Max())
		}
		prev = q
	}
}

func TestHistogramExtremesAndZero(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(-5) // negative: counted, lands in the underflow bucket
	h.Observe(math.NaN())
	h.Observe(1e300) // beyond the bucketed range: overflow bucket
	h.Observe(1e-300)
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 1e300 {
		t.Fatalf("max = %v", h.Max())
	}
	if h.Min() != -5 {
		t.Fatalf("min = %v", h.Min())
	}
	// Quantiles stay within observed bounds even for sentinel buckets.
	for _, p := range []float64{0.01, 0.5, 0.99} {
		q := h.Quantile(p)
		if q < h.Min() || q > h.Max() {
			t.Fatalf("Quantile(%v) = %v outside [%v, %v]", p, q, h.Min(), h.Max())
		}
	}
}

func TestHistogramConcurrentWriters(t *testing.T) {
	h := NewHistogram()
	const writers = 8
	const perWriter = 10000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= perWriter; i++ {
				h.Observe(float64(w*perWriter + i))
			}
		}(w)
	}
	wg.Wait()
	n := int64(writers * perWriter)
	if h.Count() != n {
		t.Fatalf("count = %d, want %d", h.Count(), n)
	}
	wantSum := float64(n) * float64(n+1) / 2
	if math.Abs(h.Sum()-wantSum) > 1e-6*wantSum {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
	if h.Min() != 1 || h.Max() != float64(n) {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestRegistryHistograms(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	if h == nil {
		t.Fatal("nil histogram from registry")
	}
	if r.Histogram("lat") != h {
		t.Fatal("get-or-create returned a different histogram")
	}
	h.Observe(2)
	h.Observe(4)
	snaps := r.HistogramSnapshots()
	s, ok := snaps["lat"]
	if !ok || s.Count != 2 || s.Mean != 3 {
		t.Fatalf("snapshots = %v", snaps)
	}
	// Untouched histograms are omitted from snapshots.
	r.Histogram("unused")
	if _, ok := r.HistogramSnapshots()["unused"]; ok {
		t.Fatal("empty histogram leaked into snapshots")
	}
	// Nil registry is safe.
	var nr *Registry
	if nr.Histogram("x") != nil {
		t.Fatal("nil registry should hand out nil histograms")
	}
}

func TestEventLogRetention(t *testing.T) {
	o := New(false).EnableEvents()
	ro := o.Rank(1)
	if !ro.Observing() {
		t.Fatal("rank with events should be observing")
	}
	ro.Span("compute", "compute", 0, 2)
	ro.MsgSent(SendEvent{Dst: 2, Bytes: 64, T0: 2, Depart: 2.5, Arrive: 3})
	ro.MsgRecvd(0, 32, 1, 2, 1.5, true)

	ranks := o.Events.Ranks()
	if len(ranks) != 1 {
		t.Fatalf("ranks = %d", len(ranks))
	}
	re := ranks[0]
	if re.Rank != 1 || len(re.Spans) != 1 || len(re.Sends) != 1 || len(re.Recvs) != 1 {
		t.Fatalf("events = %+v", re)
	}
	if re.Sends[0] != (SendEvent{Dst: 2, Bytes: 64, T0: 2, Depart: 2.5, Arrive: 3}) {
		t.Fatalf("send = %+v", re.Sends[0])
	}
	if re.Recvs[0] != (RecvEvent{Src: 0, Bytes: 32, SentAt: 1, Arrive: 2, WaitFrom: 1.5, Waited: true}) {
		t.Fatalf("recv = %+v", re.Recvs[0])
	}
	// Same rank handle on repeat lookup.
	if o.Rank(1).E != re {
		t.Fatal("rank event buffer not stable")
	}
	// Without EnableEvents nothing is retained and Observing is false
	// (when tracing is off too).
	o2 := New(false)
	ro2 := o2.Rank(0)
	if ro2.Observing() {
		t.Fatal("metrics-only rank should not be 'observing'")
	}
	ro2.MsgSent(SendEvent{Dst: 1, Bytes: 1})
	if o2.Events != nil {
		t.Fatal("events enabled unexpectedly")
	}
}
