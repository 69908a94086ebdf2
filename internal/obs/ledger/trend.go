package ledger

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Verdict is the per-metric outcome of a trend or baseline gate.
type Verdict string

const (
	VerdictOK         Verdict = "ok"
	VerdictRegression Verdict = "regression"
	VerdictImproved   Verdict = "improved"
	VerdictNoBaseline Verdict = "no_baseline"
	// VerdictInfo marks ungated metrics: tracked and plotted, never failed.
	VerdictInfo Verdict = "info"
)

// GateSpec declares how a headline metric is judged against its baseline.
// Frac is a relative threshold on the robust median; Abs (when nonzero)
// replaces it with an absolute threshold (parallel efficiency is a
// fraction already, so its band is ±0.05 absolute).
type GateSpec struct {
	Frac         float64
	Abs          float64
	HigherBetter bool
	Gated        bool
}

// Gates maps headline metrics to their specs: the one table of regression
// bands in the repository, applied by `ssbench trend -gate`, `ssbench diff`
// and the /runs pages through GateAgainst. Virtual-time metrics are
// deterministic per config digest, so their bands are tight; host-timed
// metrics wobble with machine load, so their bands are loose. A metric
// without an entry — such as those of records written by tools since
// deleted — is tracked, never gated.
var Gates = map[string]GateSpec{
	"makespan_sec":        {Frac: 0.10, Gated: true},
	"parallel_efficiency": {Abs: 0.05, HigherBetter: true, Gated: true},
	"msg_latency_p99_sec": {Frac: 0.50, Gated: true},
	"gflops":              {Frac: 0.10, HigherBetter: true, Gated: true},
	"peak_rss_bytes":      {Frac: 0.50, Gated: true},
	// Tracked, not gated: overhead depends on the fault schedule drawn.
	"checkpoint_overhead_sec": {},
	"lost_virtual_sec":        {},
	"idle_fraction":           {},
	"max_imbalance":           {},
}

// MetricTrend is one metric's history and verdict within a comparable
// record group (same config digest, same host).
type MetricTrend struct {
	Name string
	// Values are the metric's samples oldest→latest, Latest included.
	Values []float64
	Latest float64
	// Median and MAD summarize the baseline (the up-to-K values before
	// Latest). Zero-valued when there is no baseline.
	Median  float64
	MAD     float64
	Verdict Verdict
	// Detail explains a non-OK verdict ("+23.4% vs median 1.9e7, allowed 10%").
	Detail string
}

// median returns the middle of xs (mean of the two middles for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mad returns the median absolute deviation around m.
func mad(xs []float64, m float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := make([]float64, len(xs))
	for i, x := range xs {
		d[i] = math.Abs(x - m)
	}
	return median(d)
}

// judge scores latest against a baseline under spec. A change is a
// regression (or an improvement) only when it exceeds BOTH the declared
// band and 3 robust sigmas (1.4826·MAD) of the baseline's own scatter — so
// a noisy baseline widens the gate, and a constant baseline (MAD 0)
// reduces it to the declared band alone.
func judge(spec GateSpec, latest, med, madv float64) (Verdict, string) {
	if !spec.Gated {
		return VerdictInfo, ""
	}
	thr := spec.Frac * math.Abs(med)
	allowed := fmt.Sprintf("%.0f%%", spec.Frac*100)
	if spec.Abs > 0 {
		thr = spec.Abs
		allowed = fmt.Sprintf("%+.2f abs", spec.Abs)
	}
	worse := latest - med
	if spec.HigherBetter {
		worse = med - latest
	}
	noise := 3 * 1.4826 * madv
	detail := func(sign string) string {
		if med != 0 {
			return fmt.Sprintf("%s%.1f%% vs median %.4g (allowed %s)",
				sign, math.Abs(latest-med)/math.Abs(med)*100, med, allowed)
		}
		return fmt.Sprintf("%s%.4g vs median 0 (allowed %s)", sign, math.Abs(latest-med), allowed)
	}
	switch {
	case worse > thr && worse > noise:
		return VerdictRegression, detail("worse ")
	case -worse > thr && -worse > noise:
		return VerdictImproved, detail("better ")
	default:
		return VerdictOK, ""
	}
}

// GateAgainst judges newMetrics against a baseline of comparable records
// (already filtered to one config digest + host), using the most recent
// lastK records. Metrics absent from the baseline get VerdictNoBaseline.
func GateAgainst(baseline []Record, newMetrics map[string]float64, lastK int) []MetricTrend {
	if lastK <= 0 {
		lastK = 10
	}
	names := make([]string, 0, len(newMetrics))
	for name := range newMetrics {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []MetricTrend
	for _, name := range names {
		latest := newMetrics[name]
		var hist []float64
		for _, rec := range baseline {
			if v, ok := rec.Metrics[name]; ok {
				hist = append(hist, v)
			}
		}
		base := hist
		if len(base) > lastK {
			base = base[len(base)-lastK:]
		}
		mt := MetricTrend{
			Name:   name,
			Values: append(append([]float64(nil), hist...), latest),
			Latest: latest,
		}
		if len(base) == 0 {
			mt.Verdict = VerdictNoBaseline
		} else {
			mt.Median = median(base)
			mt.MAD = mad(base, mt.Median)
			mt.Verdict, mt.Detail = judge(Gates[name], latest, mt.Median, mt.MAD)
		}
		out = append(out, mt)
	}
	return out
}

// Trend treats the newest record in group that has metrics as the run
// under test and gates it against the older ones; a record without metrics
// (a spacesimd result) is no run under test. The group must already share
// a config digest and host (see GroupRecords).
func Trend(group []Record, lastK int) []MetricTrend {
	i := underTest(group)
	if i < 0 {
		return nil
	}
	return GateAgainst(group[:i], group[i].Metrics, lastK)
}

// underTest returns the index of the newest record in group that has
// metrics, the run Trend judges, or -1 when no record has any.
func underTest(group []Record) int {
	for i := len(group) - 1; i >= 0; i-- {
		if len(group[i].Metrics) > 0 {
			return i
		}
	}
	return -1
}

// AnyRegression reports whether any metric regressed.
func AnyRegression(trends []MetricTrend) bool {
	for _, t := range trends {
		if t.Verdict == VerdictRegression {
			return true
		}
	}
	return false
}

// Comparable filters records to those sharing the config digest and host
// key — the only records a trend or baseline gate may mix.
func Comparable(recs []Record, configDigest, hostKey string) []Record {
	var out []Record
	for _, r := range recs {
		if r.ConfigDigest == configDigest && r.Build.HostKey() == hostKey {
			out = append(out, r)
		}
	}
	return out
}

// textSparkLevels are the blank and the eight block glyphs of the unicode
// sparkline.
const textSparkLevels = " ▁▂▃▄▅▆▇█"

// TextSparkline renders values as a unicode sparkline normalized to the
// series' peak magnitude; an all-zero series is all blanks. ssbench trend
// and analysis.Render's link timelines use it.
func TextSparkline(values []float64) string {
	peak := 0.0
	for _, v := range values {
		peak = math.Max(peak, math.Abs(v))
	}
	var b strings.Builder
	levels := []rune(textSparkLevels)
	for _, v := range values {
		idx := 0
		if peak > 0 {
			idx = int(math.Abs(v) / peak * float64(len(levels)-1))
			if idx >= len(levels) {
				idx = len(levels) - 1
			}
		}
		b.WriteRune(levels[idx])
	}
	return b.String()
}
