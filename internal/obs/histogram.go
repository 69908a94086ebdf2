package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a lock-free log-bucketed distribution metric for nonnegative
// values (virtual seconds, byte counts, list lengths). Like Counter and
// Gauge it is safe for concurrent writers and order-independent: Observe
// only performs atomic adds and monotone CAS folds, so a snapshot never
// depends on host scheduling, and all methods are no-ops on a nil receiver.
// Construct with NewHistogram (or through Registry.Histogram), which seeds
// the min/max sentinels.
//
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

// Histogram accumulates a value distribution.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits, CAS-add like Gauge
	min     atomic.Uint64 // float64 bits, seeded +Inf
	max     atomic.Uint64 // float64 bits, seeded -Inf
	buckets [histBuckets]atomic.Int64
}

// NewHistogram returns an empty histogram ready for concurrent Observe.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
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
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	if math.IsNaN(v) {
		v = 0
	}
	for {
		old := h.sum.Load()
		nv := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(nv)) {
			break
		}
	}
	h.foldMin(v)
	h.foldMax(v)
}

func (h *Histogram) foldMin(v float64) {
	for {
		old := h.min.Load()
		if v >= math.Float64frombits(old) {
			return
		}
		if h.min.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (h *Histogram) foldMax(v float64) {
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if h.max.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Mean returns Sum/Count, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if c := h.Count(); c > 0 {
		return h.Sum() / float64(c)
	}
	return 0
}

// Min returns the smallest observed value, or 0 with no observations.
func (h *Histogram) Min() float64 {
	if h.Count() == 0 {
		return 0
	}
	return math.Float64frombits(h.min.Load())
}

// Max returns the largest observed value, or 0 with no observations.
func (h *Histogram) Max() float64 {
	if h.Count() == 0 {
		return 0
	}
	return math.Float64frombits(h.max.Load())
}

// Quantile returns an estimate of the p-quantile (p in [0,1]) from the
// bucket midpoints, exact at the extremes: Quantile(0) = Min and
// Quantile(1) = Max. Returns 0 with no observations.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return h.Min()
	}
	if p >= 1 {
		return h.Max()
	}
	rank := int64(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			// Clamp the midpoint estimate into the observed range so tiny
			// histograms (single bucket, single sample) answer exactly.
			v := bucketMid(i)
			if mn := h.Min(); v < mn {
				v = mn
			}
			if mx := h.Max(); v > mx {
				v = mx
			}
			return v
		}
	}
	return h.Max()
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

// Snapshot summarizes the distribution.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	return HistogramSnapshot{
		Count: h.Count(), Sum: h.Sum(),
		Min: h.Min(), Max: h.Max(), Mean: h.Mean(),
		P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
	}
}
