package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// Thresholds configures when a run-to-run delta counts as a regression.
// All *Frac fields are relative increases (0.10 = +10%); EfficiencyDrop is
// an absolute drop in parallel efficiency — the share of ranks × makespan
// spent computing — (0.05 = five points).
type Thresholds struct {
	MakespanFrac   float64 `json:"makespan_frac"`
	CategoryFrac   float64 `json:"category_frac"`
	LatencyP99Frac float64 `json:"latency_p99_frac"`
	EfficiencyDrop float64 `json:"efficiency_drop"`
	// AllowCrossMachine downgrades the modeled-machine identity check
	// from a hard refusal to a note. The virtual-time gates still run;
	// the caller owns the judgment that the comparison means anything.
	AllowCrossMachine bool `json:"allow_cross_machine,omitempty"`
}

// DefaultThresholds are tuned for a CI gate: loose enough to absorb
// modeling noise (the simulator is deterministic, but configuration and
// code drift are not), tight enough to catch a real slowdown.
func DefaultThresholds() Thresholds {
	return Thresholds{
		MakespanFrac:   0.10,
		CategoryFrac:   0.25,
		LatencyP99Frac: 0.50,
		EfficiencyDrop: 0.05,
	}
}

// Regression is one threshold violation found by Diff.
type Regression struct {
	Metric  string  `json:"metric"`
	Old     float64 `json:"old"`
	New     float64 `json:"new"`
	Allowed float64 `json:"allowed"` // the limit New was held to
}

func (r Regression) String() string {
	return fmt.Sprintf("REGRESSION %-32s old=%.6g new=%.6g allowed<=%.6g", r.Metric, r.Old, r.New, r.Allowed)
}

// DiffResult is the outcome of comparing two analysis reports.
type DiffResult struct {
	Regressions []Regression `json:"regressions"`
	// Notes are informational deltas (improvements, skipped comparisons).
	Notes []string `json:"notes,omitempty"`
}

// OK reports whether the new run passed the gate.
func (d DiffResult) OK() bool { return len(d.Regressions) == 0 }

// Render formats the diff outcome for humans.
func (d DiffResult) Render() string {
	var b strings.Builder
	for _, r := range d.Regressions {
		fmt.Fprintln(&b, r.String())
	}
	for _, n := range d.Notes {
		fmt.Fprintln(&b, "note:", n)
	}
	if d.OK() {
		fmt.Fprintln(&b, "diff: OK (no regressions)")
	} else {
		fmt.Fprintf(&b, "diff: FAIL (%d regressions)\n", len(d.Regressions))
	}
	return b.String()
}

// Diff compares a new analysis report against an old baseline. It refuses
// to compare runs modeled on different machines or rank counts (that is a
// configuration change, not a regression), then gates on virtual makespan,
// per-category critical-path time, message-latency p99, and parallel
// efficiency.
func Diff(oldR, newR *Report, th Thresholds) DiffResult {
	var d DiffResult
	reg := func(metric string, oldV, newV, allowed float64) {
		d.Regressions = append(d.Regressions, Regression{Metric: metric, Old: oldV, New: newV, Allowed: allowed})
	}

	if oldR.Machine != newR.Machine {
		if !th.AllowCrossMachine {
			reg("machine.identity", 0, 1, 0)
			d.Notes = append(d.Notes, fmt.Sprintf("machine mismatch: %q vs %q — runs are not comparable",
				oldR.Machine.Name, newR.Machine.Name))
			return d
		}
		d.Notes = append(d.Notes, fmt.Sprintf("machine mismatch: %q vs %q — comparing anyway (-allow-cross-machine)",
			oldR.Machine.Name, newR.Machine.Name))
	}
	if oldR.Ranks != newR.Ranks {
		reg("ranks", float64(oldR.Ranks), float64(newR.Ranks), float64(oldR.Ranks))
		return d
	}

	// Makespan: the headline gate.
	allowed := oldR.MakespanSec * (1 + th.MakespanFrac)
	if newR.MakespanSec > allowed {
		reg("makespan_sec", oldR.MakespanSec, newR.MakespanSec, allowed)
	} else if oldR.MakespanSec > 0 && newR.MakespanSec < oldR.MakespanSec*(1-th.MakespanFrac) {
		d.Notes = append(d.Notes, fmt.Sprintf("makespan improved %.1f%% (%.6g -> %.6g)",
			100*(1-newR.MakespanSec/oldR.MakespanSec), oldR.MakespanSec, newR.MakespanSec))
	}

	// Per-category critical-path time, with a noise floor of 1% of the
	// baseline makespan so microscopic categories cannot trip the gate.
	floor := 0.01 * oldR.MakespanSec
	cats := map[string]bool{}
	for c := range oldR.CriticalPath.ByCategory {
		cats[c] = true
	}
	for c := range newR.CriticalPath.ByCategory {
		cats[c] = true
	}
	names := make([]string, 0, len(cats))
	for c := range cats {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		oldV := oldR.CriticalPath.ByCategory[c]
		newV := newR.CriticalPath.ByCategory[c]
		allowed := oldV*(1+th.CategoryFrac) + floor
		if newV > allowed {
			reg("critical_path."+c, oldV, newV, allowed)
		}
	}

	// Message latency tail.
	oldH, okOld := oldR.Histograms["mp.msg.latency_sec"]
	newH, okNew := newR.Histograms["mp.msg.latency_sec"]
	if okOld && okNew && oldH.Count > 0 && newH.Count > 0 {
		allowed := oldH.P99 * (1 + th.LatencyP99Frac)
		if newH.P99 > allowed {
			reg("msg_latency_p99_sec", oldH.P99, newH.P99, allowed)
		}
	}

	// Parallel efficiency: absolute drop in points — the same compute over
	// a longer makespan.
	if newR.ParallelEfficiency < oldR.ParallelEfficiency-th.EfficiencyDrop {
		reg("parallel_efficiency", oldR.ParallelEfficiency, newR.ParallelEfficiency,
			oldR.ParallelEfficiency-th.EfficiencyDrop)
	}
	return d
}
