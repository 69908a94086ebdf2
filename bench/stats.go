package main

import (
	"math"
	"sort"
)

// summary is how a timing with several samples is reported: the median,
// and the highest percentile that still has at least ten samples beyond it
// (none below twenty samples), with the sample count.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	// TailPct is 0 when no percentile qualifies; Tail is then 0 too.
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

// tailLadder are the percentiles a summary may quote, ascending, in
// tenths of a percent so the sample-count test is exact.
var tailLadder = []int{900, 950, 990, 999}

// tailPercentile returns the highest ladder percentile with at least ten
// of n samples beyond it, or 0.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, pm := range tailLadder {
		if n*(1000-pm) >= 10*1000 {
			best = float64(pm) / 10
		}
	}
	return best
}

// quantile is the linear-interpolation quantile of sorted xs, q in [0,1].
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), Median: quantile(s, 0.5)}
	if p := tailPercentile(len(s)); p > 0 {
		out.TailPct, out.Tail = p, quantile(s, p/100)
	}
	return out
}

// iqrShare is the distance between the first and third quartile as a share
// of the median, with the exclusive-method quartiles Python's
// statistics.quantiles(values, n=4) gives — the spread the benchmark's
// bounds are judged against. It needs at least two values.
func iqrShare(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	cut := func(k int) float64 { // k-th of 3 cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return math.Abs(cut(3)-cut(1)) / math.Abs(med)
}
