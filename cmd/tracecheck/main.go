// Command tracecheck validates the observability artifacts the simulator
// emits: a Chrome trace_event JSON file (-trace), a metrics snapshot JSON
// file (-metrics), a trace-analysis report (-analysis), a treecode
// benchmark record (-bench), a checkpoint-cadence sweep (-faultsweep),
// and/or a run-ledger directory (-ledger). It exits nonzero with a
// diagnostic when a file does not satisfy the expected schema, and prints a
// one-line summary when it does. Used by `make ci` to smoke-test the
// observability pipeline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"spacesim/internal/obs"
	"spacesim/internal/obs/analysis"
	"spacesim/internal/obs/ledger"
	"spacesim/internal/obs/live"
)

func main() {
	trace := flag.String("trace", "", "Chrome trace_event JSON file to validate")
	metrics := flag.String("metrics", "", "metrics snapshot JSON file to validate")
	analysisPath := flag.String("analysis", "", "trace-analysis report (ANALYSIS.json) to validate")
	bench := flag.String("bench", "", "treecode benchmark record (BENCH_treecode.json) to validate")
	sweep := flag.String("faultsweep", "", "checkpoint-cadence sweep (FAULTSWEEP.json) to validate")
	ledgerDir := flag.String("ledger", "", "run-ledger directory (.ssruns) to validate")
	flag.Parse()
	if *trace == "" && *metrics == "" && *analysisPath == "" && *bench == "" && *sweep == "" && *ledgerDir == "" {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-trace FILE] [-metrics FILE] [-analysis FILE] [-bench FILE] [-faultsweep FILE] [-ledger DIR]")
		os.Exit(2)
	}
	ok := true
	if *trace != "" {
		ok = checkTrace(*trace) && ok
	}
	if *metrics != "" {
		ok = checkMetrics(*metrics) && ok
	}
	if *analysisPath != "" {
		ok = checkAnalysis(*analysisPath) && ok
	}
	if *bench != "" {
		ok = checkBench(*bench) && ok
	}
	if *sweep != "" {
		ok = checkFaultsweep(*sweep) && ok
	}
	if *ledgerDir != "" {
		ok = checkLedger(*ledgerDir) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

func fail(path, format string, args ...any) bool {
	fmt.Fprintf(os.Stderr, "tracecheck: %s: %s\n", path, fmt.Sprintf(format, args...))
	return false
}

// traceEvent mirrors the subset of the trace_event format the tracer emits.
type traceEvent struct {
	Name  string  `json:"name"`
	Cat   string  `json:"cat"`
	Ph    string  `json:"ph"`
	Ts    float64 `json:"ts"`
	Dur   float64 `json:"dur"`
	Pid   int     `json:"pid"`
	Tid   int     `json:"tid"`
	Scope string  `json:"id,omitempty"`
}

func checkTrace(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return fail(path, "%v", err)
	}
	var doc struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fail(path, "not valid trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fail(path, "no traceEvents")
	}
	spans, meta := 0, 0
	pids := map[int]bool{}
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
			if ev.Dur < 0 {
				return fail(path, "event %d (%s): negative duration %g", i, ev.Name, ev.Dur)
			}
		case "M":
			meta++
		case "b", "e":
			// async nestable pair; names checked below like any event
		default:
			return fail(path, "event %d: unexpected phase %q", i, ev.Ph)
		}
		if ev.Name == "" {
			return fail(path, "event %d: empty name", i)
		}
		if ev.Ts < 0 {
			return fail(path, "event %d (%s): negative timestamp %g", i, ev.Name, ev.Ts)
		}
		pids[ev.Pid] = true
	}
	if spans == 0 {
		return fail(path, "no complete (ph=X) span events")
	}
	if !pids[obs.PidRanks] {
		return fail(path, "no events on the rank pid (%d)", obs.PidRanks)
	}
	fmt.Printf("tracecheck: %s ok: %d events (%d spans, %d metadata) across %d pids\n",
		path, len(doc.TraceEvents), spans, meta, len(pids))
	return true
}

func checkMetrics(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return fail(path, "%v", err)
	}
	var snap obs.MetricsSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fail(path, "not valid metrics JSON: %v", err)
	}
	if snap.SchemaVersion < 1 {
		return fail(path, "schema_version %d < 1", snap.SchemaVersion)
	}
	if len(snap.Counters) == 0 {
		return fail(path, "no counters")
	}
	if len(snap.Ranks) == 0 {
		return fail(path, "no per-rank breakdown")
	}
	for _, rm := range snap.Ranks {
		if rm.Clock < 0 || rm.ComputeSec < 0 || rm.WaitSec < 0 {
			return fail(path, "rank %d: negative time in breakdown", rm.Rank)
		}
		if rm.ComputeSec+rm.WaitSec > rm.Clock*(1+1e-9)+1e-9 {
			return fail(path, "rank %d: compute+wait %.6g exceeds clock %.6g",
				rm.Rank, rm.ComputeSec+rm.WaitSec, rm.Clock)
		}
	}
	for name, h := range snap.Histograms {
		if !histogramSane(h) {
			return fail(path, "histogram %s: inconsistent summary %+v", name, h)
		}
	}
	fmt.Printf("tracecheck: %s ok: schema v%d, %d counters, %d gauges, %d histograms, %d ranks\n",
		path, snap.SchemaVersion, len(snap.Counters), len(snap.Gauges), len(snap.Histograms), len(snap.Ranks))
	return true
}

// histogramSane checks the internal ordering of one histogram summary:
// nonnegative count and, when populated, min <= p50 <= p95 <= p99 <= max.
func histogramSane(h obs.HistogramSnapshot) bool {
	if h.Count < 0 {
		return false
	}
	if h.Count == 0 {
		return true
	}
	return h.Min <= h.P50 && h.P50 <= h.P95 && h.P95 <= h.P99 && h.P99 <= h.Max
}

// efficiencyErr validates a report's parallel efficiency — compute seconds
// summed over ranks, divided by ranks × makespan — against the figures it
// must agree with: it is a share, the ranks cannot have computed while they
// waited (efficiency <= 1 - idle fraction), and when the report carries the
// per-rank metrics it equals what their compute_sec add up to.
func efficiencyErr(rep *analysis.Report) error {
	eff := rep.ParallelEfficiency
	if eff < 0 || eff > 1+1e-9 {
		return fmt.Errorf("parallel efficiency %g outside [0, 1]", eff)
	}
	if rep.IdleFraction < 0 || rep.IdleFraction > 1+1e-9 {
		return fmt.Errorf("idle fraction %g outside [0, 1]", rep.IdleFraction)
	}
	if eff > 1-rep.IdleFraction+1e-9 {
		return fmt.Errorf("parallel efficiency %g exceeds 1 - idle fraction %g", eff, rep.IdleFraction)
	}
	if len(rep.RankMetrics) > 0 {
		var compute float64
		for _, rm := range rep.RankMetrics {
			compute += rm.ComputeSec
		}
		want := compute / (float64(rep.Ranks) * rep.MakespanSec)
		if math.Abs(eff-want) > 1e-9 {
			return fmt.Errorf("parallel efficiency %g, but rank_metrics give %g s compute / (%d ranks x %g s) = %g",
				eff, compute, rep.Ranks, rep.MakespanSec, want)
		}
	}
	return nil
}

// checkAnalysis validates an ANALYSIS.json report: schema version, a
// positive makespan fully accounted for by the critical path, nonnegative
// category attribution, consistent phase statistics, and sane utilization.
func checkAnalysis(path string) bool {
	rep, err := analysis.ReadFile(path)
	if err != nil {
		return fail(path, "%v", err)
	}
	if rep.SchemaVersion < 1 {
		return fail(path, "schema_version %d < 1", rep.SchemaVersion)
	}
	if rep.Ranks <= 0 {
		return fail(path, "ranks = %d", rep.Ranks)
	}
	if rep.MakespanSec <= 0 {
		return fail(path, "makespan %g, want > 0", rep.MakespanSec)
	}
	if err := efficiencyErr(rep); err != nil {
		return fail(path, "%v", err)
	}
	cp := rep.CriticalPath
	if d := math.Abs(cp.TotalSec - rep.MakespanSec); d > 1e-6*rep.MakespanSec {
		return fail(path, "critical path %g does not equal makespan %g", cp.TotalSec, rep.MakespanSec)
	}
	var catSum float64
	for cat, v := range cp.ByCategory {
		if v < 0 {
			return fail(path, "critical path category %q negative: %g", cat, v)
		}
		catSum += v
	}
	if d := math.Abs(catSum - cp.TotalSec); d > 1e-6*cp.TotalSec {
		return fail(path, "critical path categories sum to %g, want %g", catSum, cp.TotalSec)
	}
	for _, p := range rep.Phases {
		if p.MeanSec < 0 || p.MaxSec < p.MeanSec-1e-9 {
			return fail(path, "phase %s: mean %g max %g", p.Name, p.MeanSec, p.MaxSec)
		}
		if p.IdleFraction < 0 || p.IdleFraction > 1+1e-9 {
			return fail(path, "phase %s: idle fraction %g", p.Name, p.IdleFraction)
		}
	}
	for name, h := range rep.Histograms {
		if !histogramSane(h) {
			return fail(path, "histogram %s: inconsistent summary %+v", name, h)
		}
	}
	for _, l := range rep.Links {
		if l.Bytes < 0 || l.MeanUtil < 0 || l.PeakUtil < l.MeanUtil-1e-9 {
			return fail(path, "link %s: bytes %d mean %g peak %g", l.Name, l.Bytes, l.MeanUtil, l.PeakUtil)
		}
		if l.BusyFraction < 0 || l.BusyFraction > 1 {
			return fail(path, "link %s: busy fraction %g", l.Name, l.BusyFraction)
		}
	}
	if fr := rep.Faults; fr != nil {
		if fr.Attempts < 1 {
			return fail(path, "faults: attempts %d < 1", fr.Attempts)
		}
		if fr.Crashes != len(fr.CrashRanks) || fr.Crashes != len(fr.CrashTimesSec) {
			return fail(path, "faults: %d crashes but %d ranks, %d times",
				fr.Crashes, len(fr.CrashRanks), len(fr.CrashTimesSec))
		}
		if fr.Attempts != fr.Crashes+1 {
			return fail(path, "faults: %d attempts inconsistent with %d crashes", fr.Attempts, fr.Crashes)
		}
		if len(fr.RestoredSteps) > fr.Crashes {
			return fail(path, "faults: %d rollbacks exceed %d crashes", len(fr.RestoredSteps), fr.Crashes)
		}
		for i, t := range fr.CrashTimesSec {
			if t < 0 {
				return fail(path, "faults: crash %d at negative time %g", i, t)
			}
		}
		if fr.ReplayedSteps < 0 || fr.LostVirtualSec < 0 || fr.TotalVirtualSec < 0 ||
			fr.DegradedLinkSec < 0 || fr.FlappingPortSec < 0 ||
			fr.CheckpointWrites < 0 || fr.CheckpointSec < 0 || fr.CorruptStripes < 0 {
			return fail(path, "faults: negative recovery metric: %+v", fr)
		}
		if fr.RecoveredBitIdentical != nil && !*fr.RecoveredBitIdentical {
			return fail(path, "faults: recovery verification recorded a divergent state")
		}
	}
	if rep.Live != nil && !checkLive(path, rep.Live) {
		return false
	}
	faultsNote := ""
	if rep.Faults != nil {
		faultsNote = fmt.Sprintf(", %d crash(es) recovered", rep.Faults.Crashes)
	}
	if rep.Live != nil {
		faultsNote += fmt.Sprintf(", live block (%d samples, %d series)", rep.Live.Samples, len(rep.Live.Series))
	}
	fmt.Printf("tracecheck: %s ok: schema v%d, %d ranks, makespan %.6gs, %d path segments, %d phases, %d links%s\n",
		path, rep.SchemaVersion, rep.Ranks, rep.MakespanSec, len(cp.Segments), len(rep.Phases), len(rep.Links), faultsNote)
	return true
}

// checkLive validates a live-telemetry block in the artifact at path,
// reporting the first violation liveErr finds.
func checkLive(path string, d *live.Dump) bool {
	if err := liveErr(d); err != nil {
		return fail(path, "%v", err)
	}
	return true
}

// liveErr validates a live-telemetry block (shared by ANALYSIS.json and
// BENCH_treecode.json): the sampler must have ticked, the retained host
// and virtual time columns must be monotone and equally long, every series
// ring must be in lockstep with them, and the final progress view must be
// internally consistent (fraction in [0,1], nonnegative counts, ETA either
// unknown (-1) or nonnegative). Returns nil when the block is sound.
func liveErr(d *live.Dump) error {
	if d.SchemaVersion < 1 {
		return fmt.Errorf("live: schema_version %d < 1", d.SchemaVersion)
	}
	if d.Samples <= 0 {
		return fmt.Errorf("live: %d samples, want > 0", d.Samples)
	}
	if d.SampleEverySec <= 0 {
		return fmt.Errorf("live: sample_every_sec %g, want > 0", d.SampleEverySec)
	}
	if d.Capacity <= 0 {
		return fmt.Errorf("live: capacity %d, want > 0", d.Capacity)
	}
	n := len(d.HostSec)
	if n == 0 || n > d.Capacity {
		return fmt.Errorf("live: %d retained samples outside (0, capacity %d]", n, d.Capacity)
	}
	if len(d.VirtualSec) != n {
		return fmt.Errorf("live: virtual_sec has %d samples, host_sec has %d", len(d.VirtualSec), n)
	}
	for i := 1; i < n; i++ {
		if d.HostSec[i] < d.HostSec[i-1] {
			return fmt.Errorf("live: host_sec not monotone at sample %d (%g < %g)", i, d.HostSec[i], d.HostSec[i-1])
		}
		if d.VirtualSec[i] < d.VirtualSec[i-1] {
			return fmt.Errorf("live: virtual_sec not monotone at sample %d (%g < %g)", i, d.VirtualSec[i], d.VirtualSec[i-1])
		}
	}
	for _, s := range d.Series {
		if s.Name == "" {
			return fmt.Errorf("live: series with empty name")
		}
		if len(s.Values) != n {
			return fmt.Errorf("live: series %s has %d samples, time columns have %d", s.Name, len(s.Values), n)
		}
	}
	p := d.Progress
	if p.StepFraction < 0 || p.StepFraction > 1 {
		return fmt.Errorf("live: step_fraction %g outside [0, 1]", p.StepFraction)
	}
	if p.StepsDone < 0 || p.StepsTotal < 0 || p.VirtualSec < 0 || p.HostSec < 0 {
		return fmt.Errorf("live: negative progress measurement %+v", p)
	}
	if p.Checkpoints < 0 || p.Recoveries < 0 {
		return fmt.Errorf("live: negative checkpoint/recovery counts %+v", p)
	}
	if p.ETASec < 0 && p.ETASec != -1 {
		return fmt.Errorf("live: eta_sec %g, want -1 (unknown) or >= 0", p.ETASec)
	}
	return nil
}

// checkFaultsweep validates FAULTSWEEP.json: the checkpoint-cadence sweep
// must describe its workload, carry at least one cadence entry with sane
// nonnegative cost metrics, and every entry must have recovered to a state
// bit-identical with the fault-free run.
func checkFaultsweep(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return fail(path, "%v", err)
	}
	var rep struct {
		SchemaVersion      int     `json:"schema_version"`
		Ranks              int     `json:"ranks"`
		Bodies             int     `json:"bodies"`
		Steps              int     `json:"steps"`
		BaselineVirtualSec float64 `json:"baseline_virtual_sec"`
		ExpectedCrashes    float64 `json:"expected_crashes"`
		ScheduledCrashes   int     `json:"scheduled_crashes"`
		Entries            []struct {
			IntervalSteps    int     `json:"interval_steps"`
			IOOverheadSec    float64 `json:"io_overhead_sec"`
			Crashes          int     `json:"crashes"`
			Attempts         int     `json:"attempts"`
			RestoredSteps    []int   `json:"restored_steps"`
			ReplayedSteps    int     `json:"replayed_steps"`
			LostVirtualSec   float64 `json:"lost_virtual_sec"`
			TotalVirtualSec  float64 `json:"total_virtual_sec"`
			CheckpointWrites int     `json:"checkpoint_writes"`
			CorruptStripes   int     `json:"corrupt_stripes"`
			BitIdentical     bool    `json:"bit_identical"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return fail(path, "not valid faultsweep JSON: %v", err)
	}
	if rep.SchemaVersion < 1 {
		return fail(path, "schema_version %d < 1", rep.SchemaVersion)
	}
	if rep.Ranks <= 0 || rep.Bodies <= 0 || rep.Steps <= 0 {
		return fail(path, "missing workload description (ranks=%d, bodies=%d, steps=%d)",
			rep.Ranks, rep.Bodies, rep.Steps)
	}
	if rep.BaselineVirtualSec <= 0 {
		return fail(path, "baseline_virtual_sec %g, want > 0", rep.BaselineVirtualSec)
	}
	if rep.ExpectedCrashes < 0 || rep.ScheduledCrashes < 0 {
		return fail(path, "negative crash counts (expected %g, scheduled %d)",
			rep.ExpectedCrashes, rep.ScheduledCrashes)
	}
	if len(rep.Entries) == 0 {
		return fail(path, "no sweep entries")
	}
	for i, e := range rep.Entries {
		if e.IntervalSteps <= 0 {
			return fail(path, "entry %d: interval_steps %d, want > 0", i, e.IntervalSteps)
		}
		if e.Attempts < 1 || e.Attempts != e.Crashes+1 {
			return fail(path, "entry %d (K=%d): %d attempts inconsistent with %d crashes",
				i, e.IntervalSteps, e.Attempts, e.Crashes)
		}
		if e.Crashes != rep.ScheduledCrashes {
			return fail(path, "entry %d (K=%d): %d crashes fired, schedule holds %d",
				i, e.IntervalSteps, e.Crashes, rep.ScheduledCrashes)
		}
		if len(e.RestoredSteps) > e.Crashes {
			return fail(path, "entry %d (K=%d): %d rollbacks exceed %d crashes",
				i, e.IntervalSteps, len(e.RestoredSteps), e.Crashes)
		}
		for _, s := range e.RestoredSteps {
			if s < 0 || s >= rep.Steps {
				return fail(path, "entry %d (K=%d): rollback step %d outside [0, %d)",
					i, e.IntervalSteps, s, rep.Steps)
			}
		}
		if e.IOOverheadSec < 0 || e.ReplayedSteps < 0 || e.LostVirtualSec < 0 ||
			e.TotalVirtualSec < 0 || e.CheckpointWrites < 0 || e.CorruptStripes < 0 {
			return fail(path, "entry %d (K=%d): negative cost metric: %+v", i, e.IntervalSteps, e)
		}
		if e.TotalVirtualSec < rep.BaselineVirtualSec*(1-1e-9) {
			return fail(path, "entry %d (K=%d): total virtual %g below the fault-free baseline %g",
				i, e.IntervalSteps, e.TotalVirtualSec, rep.BaselineVirtualSec)
		}
		if !e.BitIdentical {
			return fail(path, "entry %d (K=%d): recovery diverged from the fault-free run", i, e.IntervalSteps)
		}
	}
	fmt.Printf("tracecheck: %s ok: schema v%d, %d ranks, %d cadences, %d scheduled crash(es), all bit-identical\n",
		path, rep.SchemaVersion, rep.Ranks, len(rep.Entries), rep.ScheduledCrashes)
	return true
}

// benchPhases mirrors htree.BuildPhases in the bench record.
type benchPhases struct {
	KeySec   float64 `json:"key_sec"`
	SortSec  float64 `json:"sort_sec"`
	BuildSec float64 `json:"build_sec"`
	MergeSec float64 `json:"merge_sec"`
}

func (p benchPhases) sum() float64 { return p.KeySec + p.SortSec + p.BuildSec + p.MergeSec }
func (p benchPhases) nonneg() bool {
	return p.KeySec >= 0 && p.SortSec >= 0 && p.BuildSec >= 0 && p.MergeSec >= 0
}

// checkBench validates BENCH_treecode.json. Records at schema_version >= 3
// with an engine comparison must embed both the metrics snapshot and the
// trace-analysis summary. The schema version is the max over the optional
// blocks present (see the groupReport history): exactly 4 requires the
// treebuild block, >= 6 the live-telemetry (live) block, which is
// validated by checkLive wherever it appears, and exactly 8 the
// kernel-microbenchmark (kernels) block. A record may hold only the
// treebuild or kernels block (written by `ssbench treebuild`/`ssbench
// kernels` without a prior `group` run), in which case the
// engine-comparison requirements do not apply. The `scale` block of old
// records (version 5) is not read.
func checkBench(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return fail(path, "%v", err)
	}
	var rep struct {
		SchemaVersion int                  `json:"schema_version"`
		N             int                  `json:"n"`
		Results       []json.RawMessage    `json:"results"`
		Metrics       *obs.MetricsSnapshot `json:"metrics"`
		Analysis      *analysis.Summary    `json:"analysis"`
		Treebuild     *struct {
			N            int     `json:"n"`
			MaxLeaf      int     `json:"max_leaf"`
			SeedSeconds  float64 `json:"seed_seconds"`
			BitIdentical bool    `json:"bit_identical"`
			Entries      []struct {
				Workers       int         `json:"workers"`
				Seconds       float64     `json:"seconds"`
				SpeedupVsSeed float64     `json:"speedup_vs_seed"`
				Phases        benchPhases `json:"phases"`
			} `json:"entries"`
		} `json:"treebuild"`
		Kernels *struct {
			Sinks               int   `json:"sinks"`
			Lengths             []int `json:"lengths"`
			DefaultBitIdentical bool  `json:"default_bit_identical"`
			Entries             []struct {
				Kernel           string  `json:"kernel"`
				Variant          string  `json:"variant"`
				Precision        string  `json:"precision"`
				Length           int     `json:"length"`
				Sinks            int     `json:"sinks"`
				NsPerInteraction float64 `json:"ns_per_interaction"`
				InterPerSec      float64 `json:"interactions_per_sec"`
			} `json:"entries"`
		} `json:"kernels"`
		Live       *live.Dump         `json:"live"`
		Provenance *ledger.Provenance `json:"provenance"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return fail(path, "not valid bench JSON: %v", err)
	}
	if rep.N <= 0 {
		return fail(path, "missing workload description (n=%d)", rep.N)
	}
	if len(rep.Results) == 0 && rep.Treebuild == nil && rep.Kernels == nil {
		return fail(path, "record holds neither engine results nor a benchmark block")
	}
	if rep.SchemaVersion == 4 && rep.Treebuild == nil {
		return fail(path, "schema v%d record without a treebuild block", rep.SchemaVersion)
	}
	if rep.SchemaVersion == 6 && rep.Live == nil {
		return fail(path, "schema v%d record without a live block", rep.SchemaVersion)
	}
	if rep.SchemaVersion == 8 && rep.Kernels == nil {
		return fail(path, "schema v%d record without a kernels block", rep.SchemaVersion)
	}
	if rep.SchemaVersion >= 7 {
		if rep.Provenance == nil {
			return fail(path, "schema v%d record without a provenance block", rep.SchemaVersion)
		}
		if rep.Provenance.GoVersion == "" || rep.Provenance.ConfigDigest == "" {
			return fail(path, "provenance block missing go_version or config_digest: %+v", rep.Provenance)
		}
	}
	if rep.Live != nil && !checkLive(path, rep.Live) {
		return false
	}
	if tb := rep.Treebuild; tb != nil {
		if tb.N <= 0 || tb.MaxLeaf <= 0 {
			return fail(path, "treebuild: missing workload description (n=%d, max_leaf=%d)", tb.N, tb.MaxLeaf)
		}
		if tb.SeedSeconds <= 0 {
			return fail(path, "treebuild: seed_seconds %g, want > 0", tb.SeedSeconds)
		}
		if len(tb.Entries) == 0 {
			return fail(path, "treebuild: no entries")
		}
		if !tb.BitIdentical {
			return fail(path, "treebuild: record not bit-identical")
		}
		for i, e := range tb.Entries {
			if e.Workers <= 0 || e.Seconds <= 0 {
				return fail(path, "treebuild entry %d: workers=%d seconds=%g", i, e.Workers, e.Seconds)
			}
			if d := math.Abs(e.SpeedupVsSeed - tb.SeedSeconds/e.Seconds); d > 1e-6*e.SpeedupVsSeed {
				return fail(path, "treebuild entry %d: speedup %g inconsistent with %g/%g",
					i, e.SpeedupVsSeed, tb.SeedSeconds, e.Seconds)
			}
			if !e.Phases.nonneg() {
				return fail(path, "treebuild entry %d: negative phase time %+v", i, e.Phases)
			}
			if s := e.Phases.sum(); s > e.Seconds*(1+1e-9)+1e-6 {
				return fail(path, "treebuild entry %d: phase sum %g exceeds total %g", i, s, e.Seconds)
			}
		}
	}
	if kr := rep.Kernels; kr != nil {
		if kr.Sinks <= 0 || len(kr.Lengths) == 0 {
			return fail(path, "kernels: missing workload description (sinks=%d, %d lengths)", kr.Sinks, len(kr.Lengths))
		}
		if len(kr.Entries) == 0 {
			return fail(path, "kernels: no entries")
		}
		if !kr.DefaultBitIdentical {
			return fail(path, "kernels: a kernel width is not bit-identical to the scalar reference")
		}
		for i, e := range kr.Entries {
			if e.Kernel != "body" && e.Kernel != "cell" {
				return fail(path, "kernels entry %d: unknown kernel %q", i, e.Kernel)
			}
			// The kernel bodies a gravity.KernelISA names (the production
			// kernel per width), the scalar Table 5 micro-kernels beside
			// them, or the batched kernels of records written before the
			// Newton reciprocal square root.
			switch e.Variant {
			case "go", "avx2", "avx512", "scalar-libm", "scalar-karp", "libm", "karp":
			default:
				return fail(path, "kernels entry %d: unknown variant %q", i, e.Variant)
			}
			// "float32": v8 records written before the mode was removed.
			if e.Precision != "float64" && e.Precision != "float32" {
				return fail(path, "kernels entry %d: unknown precision %q", i, e.Precision)
			}
			if e.Length <= 0 || e.Sinks <= 0 {
				return fail(path, "kernels entry %d: length=%d sinks=%d", i, e.Length, e.Sinks)
			}
			if e.NsPerInteraction <= 0 {
				return fail(path, "kernels entry %d: ns_per_interaction %g, want > 0", i, e.NsPerInteraction)
			}
			if d := math.Abs(e.InterPerSec - 1e9/e.NsPerInteraction); d > 1e-6*e.InterPerSec {
				return fail(path, "kernels entry %d: interactions_per_sec %g inconsistent with 1e9/%g",
					i, e.InterPerSec, e.NsPerInteraction)
			}
		}
	}
	// The engine-comparison blocks below only bind when the comparison ran.
	if len(rep.Results) > 0 && rep.SchemaVersion >= 2 && rep.Metrics == nil {
		return fail(path, "schema v%d record without embedded metrics", rep.SchemaVersion)
	}
	if len(rep.Results) > 0 && rep.SchemaVersion >= 3 {
		a := rep.Analysis
		if a == nil {
			return fail(path, "schema v%d record without embedded analysis summary", rep.SchemaVersion)
		}
		if a.MakespanSec <= 0 || a.CriticalPathSec <= 0 {
			return fail(path, "analysis summary not populated: %+v", a)
		}
		if d := math.Abs(a.CriticalPathSec - a.MakespanSec); d > 1e-6*a.MakespanSec {
			return fail(path, "analysis critical path %g does not equal makespan %g",
				a.CriticalPathSec, a.MakespanSec)
		}
		var catSum float64
		for cat, v := range a.ByCategory {
			if v < 0 {
				return fail(path, "analysis category %q negative: %g", cat, v)
			}
			catSum += v
		}
		if d := math.Abs(catSum - a.CriticalPathSec); d > 1e-6*a.CriticalPathSec {
			return fail(path, "analysis categories sum to %g, want %g", catSum, a.CriticalPathSec)
		}
	}
	tbNote := ""
	if rep.Treebuild != nil {
		tbNote = fmt.Sprintf(", treebuild %d entries", len(rep.Treebuild.Entries))
	}
	if rep.Kernels != nil {
		tbNote += fmt.Sprintf(", kernels %d entries", len(rep.Kernels.Entries))
	}
	if rep.Live != nil {
		tbNote += fmt.Sprintf(", live block (%d samples, %d series)", rep.Live.Samples, len(rep.Live.Series))
	}
	if rep.Provenance != nil {
		tbNote += fmt.Sprintf(", provenance (config %.12s)", rep.Provenance.ConfigDigest)
	}
	fmt.Printf("tracecheck: %s ok: schema v%d, n=%d, %d results, metrics=%v, analysis=%v%s\n",
		path, rep.SchemaVersion, rep.N, len(rep.Results), rep.Metrics != nil, rep.Analysis != nil, tbNote)
	return true
}

// checkLedger validates a run-ledger directory: the index must parse, every
// record must carry a schema version, id, config digest, and append time,
// and every artifact blob must exist and hash back to its recorded digest
// (ReadBlob re-verifies content addresses, so silent corruption surfaces
// here).
func checkLedger(dir string) bool {
	if _, err := os.Stat(dir); err != nil {
		return fail(dir, "%v", err)
	}
	st, err := ledger.Open(dir)
	if err != nil {
		return fail(dir, "%v", err)
	}
	recs, err := st.Records()
	if err != nil {
		return fail(dir, "%v", err)
	}
	if len(recs) == 0 {
		return fail(dir, "no run records")
	}
	blobs := 0
	lastT := int64(0)
	for i, r := range recs {
		if r.SchemaVersion < 1 {
			return fail(dir, "record %d: schema_version %d < 1", i, r.SchemaVersion)
		}
		if r.ID == "" {
			return fail(dir, "record %d: empty id", i)
		}
		if r.ConfigDigest == "" {
			return fail(dir, "record %s: empty config digest", r.ID)
		}
		if r.ConfigDigest != r.Config.Digest() {
			return fail(dir, "record %s: config digest %.12s does not match its config (%.12s)",
				r.ID, r.ConfigDigest, r.Config.Digest())
		}
		if r.TimeUnixNS <= 0 {
			return fail(dir, "record %s: append time %d, want > 0", r.ID, r.TimeUnixNS)
		}
		if r.TimeUnixNS < lastT {
			return fail(dir, "record %s: append time not monotone", r.ID)
		}
		lastT = r.TimeUnixNS
		if r.Build.GoVersion == "" || r.Build.Hostname == "" {
			return fail(dir, "record %s: provenance missing go_version or hostname", r.ID)
		}
		for name, digest := range r.Artifacts {
			if _, err := st.ReadBlob(digest); err != nil {
				return fail(dir, "record %s: artifact %s: %v", r.ID, name, err)
			}
			blobs++
		}
	}
	fmt.Printf("tracecheck: %s ok: %d run records, %d artifact blobs verified\n", dir, len(recs), blobs)
	return true
}
