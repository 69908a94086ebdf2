package analysis

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// WriteJSON writes the report to path as indented JSON.
func (r *Report) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadFile loads a report written by WriteJSON. Other JSON documents carry a
// schema_version too (a checkpoint-cadence sweep, an old bench record), so a
// report must also have ranks, a positive makespan and a critical path:
// without them two files would compare as an empty, passing diff.
func ReadFile(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	switch {
	case r.SchemaVersion < 1:
		return nil, fmt.Errorf("%s: missing or bad schema_version", path)
	case r.Ranks <= 0:
		return nil, fmt.Errorf("%s: ranks = %d, not an analysis report", path, r.Ranks)
	case r.MakespanSec <= 0:
		return nil, fmt.Errorf("%s: makespan %g, not an analysis report", path, r.MakespanSec)
	case r.CriticalPath.TotalSec <= 0:
		return nil, fmt.Errorf("%s: no critical_path, not an analysis report", path)
	}
	return &r, nil
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
				l.Name, l.Bytes, 100*l.MeanUtil, 100*l.PeakUtil, 100*l.BusyFraction, sparkline(l.Timeline))
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

// sparkline renders a utilization timeline as unicode block characters.
func sparkline(tl []float64) string {
	if len(tl) == 0 {
		return ""
	}
	levels := []rune(" ▁▂▃▄▅▆▇█")
	peak := 0.0
	for _, v := range tl {
		if v > peak {
			peak = v
		}
	}
	if peak <= 0 {
		return strings.Repeat(" ", len(tl))
	}
	var sb strings.Builder
	for _, v := range tl {
		i := int(v / peak * float64(len(levels)-1))
		if i < 0 {
			i = 0
		}
		if i >= len(levels) {
			i = len(levels) - 1
		}
		sb.WriteRune(levels[i])
	}
	return sb.String()
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
