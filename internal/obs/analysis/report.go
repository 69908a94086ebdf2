package analysis

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"spacesim/internal/obs/ledger"
)

// WriteJSON checks the report (see check) and writes it to path as
// indented JSON; a report that breaks its own invariants is not written.
func (r *Report) WriteJSON(path string) error {
	if err := r.check(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadFile loads a report written by WriteJSON and refuses one that fails
// check, naming path. Other JSON documents carry a schema_version too (a
// checkpoint-cadence sweep, an old bench record), so without the check two
// of them would compare as an empty, passing diff.
func ReadFile(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := r.check(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// check holds the invariants of ANALYSIS.json. A report has a schema
// version, ranks, a positive makespan and a critical path. The critical path
// tiles the makespan, and its nonnegative categories sum to it. Parallel
// efficiency is a share no larger than 1 - idle fraction, and equals what
// the rank metrics' compute seconds give. Phase, histogram and link
// summaries are ordered and in range. The fault summary counts one attempt
// per crash plus one and records no divergent recovery.
func (r *Report) check() error {
	switch {
	case r.SchemaVersion < 1:
		return errors.New("missing or bad schema_version")
	case r.Ranks <= 0:
		return fmt.Errorf("ranks = %d, not an analysis report", r.Ranks)
	case r.MakespanSec <= 0:
		return fmt.Errorf("makespan %g, not an analysis report", r.MakespanSec)
	case r.CriticalPath.TotalSec <= 0:
		return errors.New("no critical_path, not an analysis report")
	}

	eff := r.ParallelEfficiency
	if eff < 0 || eff > 1+1e-9 {
		return fmt.Errorf("parallel efficiency %g outside [0, 1]", eff)
	}
	if r.IdleFraction < 0 || r.IdleFraction > 1+1e-9 {
		return fmt.Errorf("idle fraction %g outside [0, 1]", r.IdleFraction)
	}
	if eff > 1-r.IdleFraction+1e-9 {
		return fmt.Errorf("parallel efficiency %g exceeds 1 - idle fraction %g", eff, r.IdleFraction)
	}
	if len(r.RankMetrics) > 0 {
		var compute float64
		for _, rm := range r.RankMetrics {
			compute += rm.ComputeSec
		}
		want := compute / (float64(r.Ranks) * r.MakespanSec)
		if math.Abs(eff-want) > 1e-9 {
			return fmt.Errorf("parallel efficiency %g, but rank_metrics give %g s compute / (%d ranks x %g s) = %g",
				eff, compute, r.Ranks, r.MakespanSec, want)
		}
	}

	cp := r.CriticalPath
	if math.Abs(cp.TotalSec-r.MakespanSec) > 1e-6*r.MakespanSec {
		return fmt.Errorf("critical path %g does not equal makespan %g", cp.TotalSec, r.MakespanSec)
	}
	var catSum float64
	for cat, v := range cp.ByCategory {
		if v < 0 {
			return fmt.Errorf("critical path category %q negative: %g", cat, v)
		}
		catSum += v
	}
	if math.Abs(catSum-cp.TotalSec) > 1e-6*cp.TotalSec {
		return fmt.Errorf("critical path categories sum to %g, want %g", catSum, cp.TotalSec)
	}
	for _, p := range r.Phases {
		if p.MeanSec < 0 || p.MaxSec < p.MeanSec-1e-9 {
			return fmt.Errorf("phase %s: mean %g max %g", p.Name, p.MeanSec, p.MaxSec)
		}
		if p.IdleFraction < 0 || p.IdleFraction > 1+1e-9 {
			return fmt.Errorf("phase %s: idle fraction %g", p.Name, p.IdleFraction)
		}
	}
	for name, h := range r.Histograms {
		if h.Count < 0 || (h.Count > 0 && !(h.Min <= h.P50 && h.P50 <= h.P95 && h.P95 <= h.P99 && h.P99 <= h.Max)) {
			return fmt.Errorf("histogram %s: inconsistent summary %+v", name, h)
		}
	}
	for _, l := range r.Links {
		if l.Bytes < 0 || l.MeanUtil < 0 || l.PeakUtil < l.MeanUtil-1e-9 {
			return fmt.Errorf("link %s: bytes %d mean %g peak %g", l.Name, l.Bytes, l.MeanUtil, l.PeakUtil)
		}
		if l.BusyFraction < 0 || l.BusyFraction > 1 {
			return fmt.Errorf("link %s: busy fraction %g", l.Name, l.BusyFraction)
		}
	}

	if fr := r.Faults; fr != nil {
		if fr.Attempts < 1 {
			return fmt.Errorf("faults: attempts %d < 1", fr.Attempts)
		}
		if fr.Crashes != len(fr.CrashRanks) || fr.Crashes != len(fr.CrashTimesSec) {
			return fmt.Errorf("faults: %d crashes but %d ranks, %d times",
				fr.Crashes, len(fr.CrashRanks), len(fr.CrashTimesSec))
		}
		if fr.Attempts != fr.Crashes+1 {
			return fmt.Errorf("faults: %d attempts inconsistent with %d crashes", fr.Attempts, fr.Crashes)
		}
		if len(fr.RestoredSteps) > fr.Crashes {
			return fmt.Errorf("faults: %d rollbacks exceed %d crashes", len(fr.RestoredSteps), fr.Crashes)
		}
		for i, t := range fr.CrashTimesSec {
			if t < 0 {
				return fmt.Errorf("faults: crash %d at negative time %g", i, t)
			}
		}
		if fr.ReplayedSteps < 0 || fr.LostVirtualSec < 0 || fr.TotalVirtualSec < 0 ||
			fr.DegradedLinkSec < 0 || fr.FlappingPortSec < 0 ||
			fr.CheckpointWrites < 0 || fr.CheckpointSec < 0 || fr.CorruptStripes < 0 {
			return fmt.Errorf("faults: negative recovery metric: %+v", fr)
		}
		if fr.RecoveredBitIdentical != nil && !*fr.RecoveredBitIdentical {
			return errors.New("faults: recovery verification recorded a divergent state")
		}
	}
	return nil
}

// Headline returns the metrics a run record keeps from the report: virtual
// makespan, parallel efficiency, idle fraction, message-latency p99 and,
// for a fault-injected run, checkpoint overhead and lost virtual time. A
// zero value is left out.
func (r *Report) Headline() map[string]float64 {
	out := map[string]float64{}
	put := func(name string, v float64) {
		if v != 0 {
			out[name] = v
		}
	}
	put("makespan_sec", r.MakespanSec)
	put("parallel_efficiency", r.ParallelEfficiency)
	put("idle_fraction", r.IdleFraction)
	put("msg_latency_p99_sec", r.Histograms["mp.msg.latency_sec"].P99)
	if r.Faults != nil {
		put("checkpoint_overhead_sec", r.Faults.CheckpointSec)
		put("lost_virtual_sec", r.Faults.LostVirtualSec)
	}
	return out
}

// Gate judges cur's headline metrics against base's with the ledger's
// bands: ledger.GateAgainst over a one-record baseline, whose MAD is 0, so
// each verdict is the declared band alone. Two reports are comparable only
// when both carry the same non-empty provenance config digest; otherwise
// Gate returns an error and no verdicts.
func Gate(base, cur *Report) ([]ledger.MetricTrend, error) {
	var digests [2]string
	for i, r := range []*Report{base, cur} {
		if r.Provenance != nil {
			digests[i] = r.Provenance.ConfigDigest
		}
	}
	if digests[0] == "" || digests[0] != digests[1] {
		return nil, fmt.Errorf("config digests %q and %q differ or are missing; the runs are not comparable",
			digests[0], digests[1])
	}
	return ledger.GateAgainst([]ledger.Record{{Metrics: base.Headline()}}, cur.Headline(), 1), nil
}

// Render formats the report for humans.
func (r *Report) Render() string {
	var b strings.Builder
	f := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }

	f("analysis (schema %d)  machine=%s  ranks=%d\n", r.SchemaVersion, r.Machine.Name, r.Ranks)
	f("  makespan %s   parallel efficiency %.1f%% (compute / ranks x makespan)   idle %.1f%%\n",
		fsec(r.MakespanSec), 100*r.ParallelEfficiency, 100*r.IdleFraction)

	f("\ncritical path: %s over %d segments, %d cross-rank hops\n",
		fsec(r.CriticalPath.TotalSec), len(r.CriticalPath.Segments), r.CriticalPath.Hops)
	renderShare(&b, "  by category:", r.CriticalPath.ByCategory, r.CriticalPath.TotalSec)
	renderShare(&b, "  by phase:   ", r.CriticalPath.ByPhase, r.CriticalPath.TotalSec)

	if len(r.Phases) > 0 {
		f("\nphases (virtual time, all ranks):\n")
		f("  %-12s %10s %10s %10s  %-8s %9s %8s %6s\n",
			"phase", "total", "mean/rank", "max/rank", "max@", "imbalance", "eff", "idle")
		for _, p := range r.Phases {
			f("  %-12s %10s %10s %10s  rank %-3d %8.2fx %7.1f%% %5.1f%%\n",
				p.Name, fsec(p.TotalSec), fsec(p.MeanSec), fsec(p.MaxSec),
				p.MaxRank, p.Imbalance, 100*p.Efficiency, 100*p.IdleFraction)
		}
	}

	if len(r.Histograms) > 0 {
		f("\ndistributions:\n")
		names := make([]string, 0, len(r.Histograms))
		for n := range r.Histograms {
			names = append(names, n)
		}
		sort.Strings(names)
		f("  %-26s %10s %12s %12s %12s %12s\n", "metric", "count", "p50", "p95", "p99", "max")
		for _, n := range names {
			h := r.Histograms[n]
			f("  %-26s %10d %12.4g %12.4g %12.4g %12.4g\n", n, h.Count, h.P50, h.P95, h.P99, h.Max)
		}
	}

	if fs := r.Faults; fs != nil {
		f("\nfault injection & recovery:\n")
		f("  crashes %d (ranks %v at %v s), %d attempt(s)\n",
			fs.Crashes, fs.CrashRanks, fs.CrashTimesSec, fs.Attempts)
		f("  rollbacks to steps %v, %d steps replayed, %s virtual lost\n",
			fs.RestoredSteps, fs.ReplayedSteps, fsec(fs.LostVirtualSec))
		f("  checkpoints %d written (%s disk), %d corrupt set(s) skipped; fabric degraded %s, flapping %s\n",
			fs.CheckpointWrites, fsec(fs.CheckpointSec), fs.CorruptStripes,
			fsec(fs.DegradedLinkSec), fsec(fs.FlappingPortSec))
		f("  total virtual cost %s\n", fsec(fs.TotalVirtualSec))
		if fs.RecoveredBitIdentical != nil {
			f("  recovery verified bit-identical: %v\n", *fs.RecoveredBitIdentical)
		}
	}

	if len(r.Links) > 0 {
		f("\nlink utilization (%d timeline bins over the makespan):\n", timelineLen(r.Links))
		f("  %-16s %14s %8s %8s %8s  %s\n", "link", "bytes", "mean", "peak", "busy", "timeline")
		for _, l := range r.Links {
			f("  %-16s %14d %7.2f%% %7.2f%% %7.1f%%  %s\n",
				l.Name, l.Bytes, 100*l.MeanUtil, 100*l.PeakUtil, 100*l.BusyFraction, ledger.TextSparkline(l.Timeline))
		}
	}
	return b.String()
}

// renderShare prints a map of durations as percentages of total, largest
// first.
func renderShare(b *strings.Builder, label string, m map[string]float64, total float64) {
	if len(m) == 0 || total <= 0 {
		return
	}
	type kv struct {
		k string
		v float64
	}
	kvs := make([]kv, 0, len(m))
	for k, v := range m {
		kvs = append(kvs, kv{k, v})
	}
	sort.Slice(kvs, func(i, j int) bool {
		if kvs[i].v != kvs[j].v {
			return kvs[i].v > kvs[j].v
		}
		return kvs[i].k < kvs[j].k
	})
	fmt.Fprint(b, label)
	for _, e := range kvs {
		name := e.k
		if name == "" {
			name = "(none)"
		}
		fmt.Fprintf(b, "  %s %.1f%%", name, 100*e.v/total)
	}
	fmt.Fprintln(b)
}

func timelineLen(links []LinkStats) int {
	for _, l := range links {
		if len(l.Timeline) > 0 {
			return len(l.Timeline)
		}
	}
	return 0
}

// fsec formats a virtual duration with a sensible unit.
func fsec(s float64) string {
	switch {
	case s == 0:
		return "0s"
	case s < 1e-3:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	case s < 120:
		return fmt.Sprintf("%.3fs", s)
	default:
		return fmt.Sprintf("%.1fmin", s/60)
	}
}
