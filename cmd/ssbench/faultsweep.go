package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"spacesim/internal/core"
	"spacesim/internal/faults"
	"spacesim/internal/obs/ledger"
)

// FaultsweepSchemaVersion stamps FAULTSWEEP.json.
const FaultsweepSchemaVersion = 1

// FaultsweepReport is the machine-readable faultsweep artifact: how the
// checkpoint interval trades expected lost work against I/O overhead under
// one seeded fault schedule.
type FaultsweepReport struct {
	SchemaVersion int     `json:"schema_version"`
	Seed          int64   `json:"seed"`
	Accel         float64 `json:"accel"`
	Ranks         int     `json:"ranks"`
	Bodies        int     `json:"bodies"`
	Steps         int     `json:"steps"`
	// BaselineVirtualSec is the fault-free, checkpoint-free makespan (the
	// schedule horizon); ExpectedCrashes the analytic crash mean over it.
	BaselineVirtualSec float64 `json:"baseline_virtual_sec"`
	ExpectedCrashes    float64 `json:"expected_crashes"`
	// ScheduledCrashes is the number of crashes the drawn schedule holds.
	ScheduledCrashes int                `json:"scheduled_crashes"`
	Entries          []FaultsweepEntry  `json:"entries"`
	Provenance       *ledger.Provenance `json:"provenance,omitempty"`
}

// FaultsweepEntry is one checkpoint cadence's outcome.
type FaultsweepEntry struct {
	// IntervalSteps is the checkpoint cadence K.
	IntervalSteps int `json:"interval_steps"`
	// IOOverheadSec is the virtual disk time a fault-free run spends on
	// checkpoint writes at this cadence (rank 0; writes are parallel, so
	// this approximates the makespan cost).
	IOOverheadSec float64 `json:"io_overhead_sec"`
	// The recovery outcome under the shared fault schedule.
	Crashes          int     `json:"crashes"`
	Attempts         int     `json:"attempts"`
	RestoredSteps    []int   `json:"restored_steps,omitempty"`
	ReplayedSteps    int     `json:"replayed_steps"`
	LostVirtualSec   float64 `json:"lost_virtual_sec"`
	TotalVirtualSec  float64 `json:"total_virtual_sec"`
	CheckpointWrites int     `json:"checkpoint_writes"`
	CorruptStripes   int     `json:"corrupt_stripes"`
	// BitIdentical records whether the recovered state matched the
	// fault-free run exactly.
	BitIdentical bool `json:"bit_identical"`
}

// faultsweepCmd sweeps the checkpoint interval under a fixed seeded fault
// schedule on the 2-module 8-rank slice and writes the trade-off (expected
// lost work vs I/O overhead) as chart-able JSON.
func faultsweepCmd(args []string) {
	fs := flag.NewFlagSet("faultsweep", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "fault schedule seed")
	accel := fs.Float64("accel", 0, "fault acceleration (0 = auto: ~1.5 expected crashes)")
	out := fs.String("o", "FAULTSWEEP.json", "output artifact path")
	quickF := fs.Bool("quick", false, "shrink the workload for a fast pass")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ssbench faultsweep [-seed N] [-accel A] [-quick] [-o FAULTSWEEP.json]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	accelReq := *accel // requested, pre-calibration: the digestable input

	n, steps := 4096, 12
	if *quickF {
		n = 1024
	}
	cl := analyzeCluster()
	procs := 8
	rng := rand.New(rand.NewSource(2))
	ics := core.PlummerSphere(rng, n, 1.0)
	cfg := core.RunConfig{
		Cluster: cl, Procs: procs, Steps: steps,
		Opt:          core.Options{Theta: 0.7, Eps: 0.01, DT: 1e-3, MaxLeaf: 16},
		GatherBodies: true,
	}

	base := core.Run(cfg, ics)
	if base.Err != nil {
		die(1, "faultsweep: baseline:", base.Err)
	}
	horizon := base.ElapsedVirtual

	// Auto-calibrate the acceleration so the schedule holds a crash or two:
	// the expectation is ~linear in accel at these probabilities.
	if *accel <= 0 {
		perUnitAccel := faults.ExpectedCrashes(faults.Options{Ranks: procs, Horizon: horizon, Accel: 1})
		*accel = 1.5 / perUnitAccel
	}
	sched := faults.New(faults.Options{Ranks: procs, Horizon: horizon, Seed: *seed, Accel: *accel})
	// A sweep without a crash measures nothing; double the acceleration
	// until the draw holds one.
	for tries := 0; sched.Count(faults.RankCrash) == 0 && tries < 8; tries++ {
		*accel *= 2
		sched = faults.New(faults.Options{Ranks: procs, Horizon: horizon, Seed: *seed, Accel: *accel})
	}
	rep := FaultsweepReport{
		SchemaVersion:      FaultsweepSchemaVersion,
		Seed:               *seed,
		Accel:              *accel,
		Ranks:              procs,
		Bodies:             n,
		Steps:              steps,
		BaselineVirtualSec: horizon,
		ExpectedCrashes:    faults.ExpectedCrashes(faults.Options{Ranks: procs, Horizon: horizon, Accel: *accel}),
		ScheduledCrashes:   sched.Count(faults.RankCrash),
	}
	fmt.Printf("faultsweep: 8 ranks, N=%d, %d steps, horizon %.3fs, accel %.3g — %d crash(es) scheduled\n",
		n, steps, horizon, *accel, rep.ScheduledCrashes)

	for _, k := range []int{1, 2, 4, 8} {
		dir, err := os.MkdirTemp("", "faultsweep-ck-")
		if err != nil {
			die(1, "faultsweep:", err)
		}
		ckCfg := cfg
		ckCfg.Checkpoint = &core.CheckpointConfig{Dir: dir, Every: k}
		clean := core.Run(ckCfg, ics)
		os.RemoveAll(dir)
		if clean.Err != nil {
			die(1, "faultsweep: clean run:", clean.Err)
		}

		dir, err = os.MkdirTemp("", "faultsweep-ck-")
		if err != nil {
			die(1, "faultsweep:", err)
		}
		fCfg := ckCfg
		fCfg.Checkpoint = &core.CheckpointConfig{Dir: dir, Every: k}
		rec, st, err := core.RunRecovered(core.RecoveryConfig{
			RunConfig: fCfg,
			Injector:  faults.NewInjector(sched),
		}, ics)
		os.RemoveAll(dir)
		if err != nil {
			die(1, "faultsweep: recovery:", err)
		}

		e := FaultsweepEntry{
			IntervalSteps:    k,
			IOOverheadSec:    clean.CheckpointSec,
			Crashes:          st.Crashes,
			Attempts:         st.Attempts,
			RestoredSteps:    st.RestoredSteps,
			ReplayedSteps:    st.ReplayedSteps,
			LostVirtualSec:   st.LostVirtualSec,
			TotalVirtualSec:  st.TotalVirtualSec,
			CheckpointWrites: st.CheckpointWrites,
			CorruptStripes:   st.CorruptStripes,
			BitIdentical:     core.BitIdentical(base, rec),
		}
		rep.Entries = append(rep.Entries, e)
		fmt.Printf("  K=%d: io overhead %.4fs, %d crash(es), lost %.4fs, replayed %d steps, total %.4fs, bit-identical %v\n",
			k, e.IOOverheadSec, e.Crashes, e.LostVirtualSec, e.ReplayedSteps, e.TotalVirtualSec, e.BitIdentical)
		if !e.BitIdentical {
			die(1, fmt.Sprintf("faultsweep: K=%d recovery diverged from the fault-free run", k))
		}
		if err := rep.checkEntry(e); err != nil {
			die(1, "faultsweep:", err)
		}
	}

	lcfg := ledger.Config{
		Tool: "ssbench", Experiment: "faultsweep",
		N: n, Ranks: procs, Steps: steps, Seed: *seed,
		Flags: map[string]string{
			"quick": strconv.FormatBool(*quickF),
			"accel": fmt.Sprint(accelReq),
		},
	}
	rep.Provenance = provFor(lcfg)
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		die(1, "faultsweep:", err)
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		die(1, "faultsweep:", err)
	}
	fmt.Printf("wrote %s\n", *out)
	ledgerAppend(lcfg, filepath.Base(*out), *out, rep.headline())
}

// checkEntry holds the invariants of one cadence's outcome: one attempt per
// crash plus one, every scheduled crash fired, no more rollbacks than
// crashes and each to a step of the run, no negative cost, and a total no
// cheaper than the fault-free baseline.
func (r *FaultsweepReport) checkEntry(e FaultsweepEntry) error {
	k := e.IntervalSteps
	if e.Attempts != e.Crashes+1 {
		return fmt.Errorf("K=%d: %d attempts inconsistent with %d crashes", k, e.Attempts, e.Crashes)
	}
	if e.Crashes != r.ScheduledCrashes {
		return fmt.Errorf("K=%d: %d crashes fired, schedule holds %d", k, e.Crashes, r.ScheduledCrashes)
	}
	if len(e.RestoredSteps) > e.Crashes {
		return fmt.Errorf("K=%d: %d rollbacks exceed %d crashes", k, len(e.RestoredSteps), e.Crashes)
	}
	for _, s := range e.RestoredSteps {
		if s < 0 || s >= r.Steps {
			return fmt.Errorf("K=%d: rollback step %d outside [0, %d)", k, s, r.Steps)
		}
	}
	if e.IOOverheadSec < 0 || e.ReplayedSteps < 0 || e.LostVirtualSec < 0 ||
		e.TotalVirtualSec < 0 || e.CheckpointWrites < 0 || e.CorruptStripes < 0 {
		return fmt.Errorf("K=%d: negative cost metric: %+v", k, e)
	}
	if e.TotalVirtualSec < r.BaselineVirtualSec*(1-1e-9) {
		return fmt.Errorf("K=%d: total virtual %g below the fault-free baseline %g",
			k, e.TotalVirtualSec, r.BaselineVirtualSec)
	}
	return nil
}

// headline returns the metrics the ledger keeps from the sweep: the
// fault-free makespan, the checkpoint overhead of the K=1 cadence (which
// pays the full I/O cost) and the most virtual time any cadence lost.
func (r *FaultsweepReport) headline() map[string]float64 {
	out := map[string]float64{"makespan_sec": r.BaselineVirtualSec, "lost_virtual_sec": 0}
	for _, e := range r.Entries {
		if e.IntervalSteps == 1 {
			out["checkpoint_overhead_sec"] = e.IOOverheadSec
		}
		out["lost_virtual_sec"] = math.Max(out["lost_virtual_sec"], e.LostVirtualSec)
	}
	return out
}
