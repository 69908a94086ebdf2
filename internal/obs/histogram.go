package obs

import (
	"math"
	"sync"
)

// Buckets are logarithmic: histSub sub-buckets per power of two, spanning
// 2^histMinExp .. 2^histMaxExp, plus a dedicated bucket for zero (and any
// negative or NaN input, which is clamped there). Quantiles are answered
// from bucket midpoints clamped into [Min, Max], so their relative error is
// bounded by the sub-bucket width: TestHistogramQuantileAccuracy holds it
// under 9%.
const (
	histMinExp = -64 // smallest resolved magnitude, 2^-64 ~ 5.4e-20
	histMaxExp = 64  // largest resolved magnitude, 2^64 ~ 1.8e19
	histSub    = 8   // sub-buckets per octave
	// Bucket 0 holds zero/negative/NaN values; the last bucket holds
	// overflow beyond 2^histMaxExp.
	histBuckets = (histMaxExp-histMinExp)*histSub + 2
)

// Histogram is a log-bucketed distribution metric for nonnegative values
// (virtual seconds, byte counts, list lengths). One mutex guards it, so it
// is safe for concurrent writers; its count, buckets, minimum and maximum
// (and the quantiles read from them) commute exactly, and its float sum is
// a function of the order its values arrive in. mp observes into each
// rank's own histograms and merges them into the registry's in rank order
// once the ranks are done; the registry's other histograms take whole
// numbers, whose sums commute. The zero value is empty and ready to use,
// and every method is a no-op on a nil receiver.
type Histogram struct {
	mu       sync.Mutex
	count    int64
	sum      float64
	min, max float64 // valid once count > 0
	// buckets[k] counts bucket lo+k. The window covers every bucket observed
	// so far and grows as values arrive, so a distribution that spans a few
	// octaves — a rank's message latencies — holds a few dozen counters, not
	// the whole layout.
	lo      int
	buckets []int64
}

// widen grows the window to cover buckets [lo, hi), with room to spare on
// either side so that a histogram grows a few times at most.
func (h *Histogram) widen(lo, hi int) {
	if len(h.buckets) > 0 {
		lo, hi = min(lo, h.lo), max(hi, h.lo+len(h.buckets))
	}
	pad := histSub + len(h.buckets)/2
	lo, hi = max(lo-pad, 0), min(hi+pad, histBuckets)
	b := make([]int64, hi-lo)
	if len(h.buckets) > 0 {
		copy(b[h.lo-lo:], h.buckets)
	}
	h.lo, h.buckets = lo, b
}

// bucketIndex maps a value to its bucket.
func bucketIndex(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	oct := exp - 1 - histMinExp
	if oct < 0 {
		return 0
	}
	if oct >= histMaxExp-histMinExp {
		return histBuckets - 1
	}
	sub := int((frac - 0.5) * 2 * histSub) // [0, histSub)
	if sub >= histSub {
		sub = histSub - 1
	}
	return 1 + oct*histSub + sub
}

// bucketMid returns the representative value of a bucket (arithmetic
// midpoint of its range; 0 for the zero bucket).
func bucketMid(i int) float64 {
	if i <= 0 {
		return 0
	}
	if i >= histBuckets-1 {
		return math.Ldexp(1, histMaxExp)
	}
	i--
	oct, sub := i/histSub, i%histSub
	width := math.Ldexp(1.0/histSub, oct+histMinExp) // octave span / histSub
	lo := math.Ldexp(0.5+float64(sub)/(2*histSub), oct+histMinExp+1)
	return lo + width/2
}

// Observe folds one value into the distribution.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := bucketIndex(v)
	if uint(i-h.lo) >= uint(len(h.buckets)) {
		h.widen(i, i+1)
	}
	h.buckets[i-h.lo]++
	if math.IsNaN(v) {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Merge folds every observation of part into h: the counts, buckets,
// minimum and maximum as if each value had been observed, and part's sum
// added to h's in one addition. part must be another histogram than h.
func (h *Histogram) Merge(part *Histogram) {
	if h == nil || part == nil {
		return
	}
	part.mu.Lock()
	defer part.mu.Unlock()
	if part.count == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if part.lo < h.lo || part.lo+len(part.buckets) > h.lo+len(h.buckets) {
		h.widen(part.lo, part.lo+len(part.buckets))
	}
	for k, c := range part.buckets {
		h.buckets[part.lo+k-h.lo] += c
	}
	if h.count == 0 || part.min < h.min {
		h.min = part.min
	}
	if h.count == 0 || part.max > h.max {
		h.max = part.max
	}
	h.count += part.count
	h.sum += part.sum
}

// quantile returns an estimate of the p-quantile (p in [0,1]) from the
// bucket midpoints, exact at the extremes: quantile(0) = min and
// quantile(1) = max. Returns 0 with no observations; caller holds mu.
func (h *Histogram) quantile(p float64) float64 {
	n := h.count
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			// Clamp the midpoint estimate into the observed range so tiny
			// histograms (single bucket, single sample) answer exactly.
			v := bucketMid(h.lo + i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// HistogramSnapshot is the JSON shape of one histogram in a metrics dump.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot summarizes the distribution; every field is 0 with no
// observations.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return HistogramSnapshot{}
	}
	return HistogramSnapshot{
		Count: h.count, Sum: h.sum,
		Min: h.min, Max: h.max, Mean: h.sum / float64(h.count),
		P50: h.quantile(0.50), P95: h.quantile(0.95), P99: h.quantile(0.99),
	}
}
