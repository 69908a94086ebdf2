package obs

import (
	"math"
	"sync"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	h := &Histogram{}
	if s := h.Snapshot(); s != (HistogramSnapshot{}) {
		t.Fatalf("empty snapshot: %+v", s)
	}
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if q := h.quantile(p); q != 0 {
			t.Fatalf("empty quantile(%v) = %v", p, q)
		}
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1) // must not panic
	h.Merge(&Histogram{})
	if s := h.Snapshot(); s != (HistogramSnapshot{}) {
		t.Fatalf("nil snapshot: %+v", s)
	}
	g := &Histogram{}
	g.Merge(nil)
	if s := g.Snapshot(); s.Count != 0 {
		t.Fatalf("merging nil: %+v", s)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := &Histogram{}
	h.Observe(42.5)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 42.5 || s.Mean != 42.5 {
		t.Fatalf("count=%d sum=%v mean=%v", s.Count, s.Sum, s.Mean)
	}
	if s.Min != 42.5 || s.Max != 42.5 {
		t.Fatalf("min/max %v/%v", s.Min, s.Max)
	}
	// With one sample every quantile is clamped to the exact value.
	for _, p := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if q := h.quantile(p); q != 42.5 {
			t.Fatalf("quantile(%v) = %v, want 42.5", p, q)
		}
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := &Histogram{}
	n := 10000
	for i := 1; i <= n; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if s.Count != int64(n) {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != 1 || s.Max != float64(n) {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	// Log-bucketed with 8 sub-buckets per octave: relative error under ~9%.
	for _, p := range []float64{0.5, 0.95, 0.99} {
		want := p * float64(n)
		got := h.quantile(p)
		if rel := math.Abs(got-want) / want; rel > 0.09 {
			t.Fatalf("quantile(%v) = %v, want ~%v (rel err %v)", p, got, want, rel)
		}
	}
	// Quantiles are monotone in p and clamped into [Min, Max].
	prev := h.quantile(0)
	for p := 0.05; p <= 1.0; p += 0.05 {
		q := h.quantile(p)
		if q < prev-1e-12 {
			t.Fatalf("quantile not monotone at p=%v: %v < %v", p, q, prev)
		}
		if q < s.Min || q > s.Max {
			t.Fatalf("quantile(%v) = %v outside [%v, %v]", p, q, s.Min, s.Max)
		}
		prev = q
	}
}

func TestHistogramExtremesAndZero(t *testing.T) {
	h := &Histogram{}
	h.Observe(0)
	h.Observe(-5) // negative: counted, lands in the underflow bucket
	h.Observe(math.NaN())
	h.Observe(1e300) // beyond the bucketed range: overflow bucket
	h.Observe(1e-300)
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Max != 1e300 {
		t.Fatalf("max = %v", s.Max)
	}
	if s.Min != -5 {
		t.Fatalf("min = %v", s.Min)
	}
	// Quantiles stay within observed bounds even for sentinel buckets.
	for _, p := range []float64{0.01, 0.5, 0.99} {
		q := h.quantile(p)
		if q < s.Min || q > s.Max {
			t.Fatalf("quantile(%v) = %v outside [%v, %v]", p, q, s.Min, s.Max)
		}
	}
}

func TestHistogramConcurrentWriters(t *testing.T) {
	h := &Histogram{}
	const writers = 8
	const perWriter = 10000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Odd writers observe into a part of their own and merge it.
			dst := h
			if w%2 == 1 {
				dst = &Histogram{}
				defer h.Merge(dst)
			}
			for i := 1; i <= perWriter; i++ {
				dst.Observe(float64(w*perWriter + i))
			}
		}(w)
	}
	wg.Wait()
	n := int64(writers * perWriter)
	s := h.Snapshot()
	if s.Count != n {
		t.Fatalf("count = %d, want %d", s.Count, n)
	}
	// Whole numbers sum exactly in any order.
	if wantSum := float64(n) * float64(n+1) / 2; s.Sum != wantSum {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
	if s.Min != 1 || s.Max != float64(n) {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
}

// Merging part histograms in order is observing every value in that order:
// the same snapshot, bit for bit, when each part's sum is exact (here
// multiples of 1/8 well inside 2^53), including empty parts, zeros and
// parts whose ranges interleave.
func TestHistogramMerge(t *testing.T) {
	parts := [][]float64{
		{3, 0.125, 7.5},
		nil,
		{0, 1024, 2.25, 2.25},
		{0.5, 65536.875},
		{1e6, 0.375, 40},
	}
	whole, merged := &Histogram{}, &Histogram{}
	for _, vs := range parts {
		part := &Histogram{}
		for _, v := range vs {
			whole.Observe(v)
			part.Observe(v)
		}
		merged.Merge(part)
	}
	if a, b := whole.Snapshot(), merged.Snapshot(); a != b {
		t.Fatalf("observed %+v, merged %+v", a, b)
	}
	for p := 0.0; p <= 1; p += 0.01 {
		if a, b := whole.quantile(p), merged.quantile(p); a != b {
			t.Fatalf("quantile(%v): observed %v, merged %v", p, a, b)
		}
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
