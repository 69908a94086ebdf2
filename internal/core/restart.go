package core

import (
	"errors"
	"fmt"

	"spacesim/internal/faults"
	"spacesim/internal/mp"
	"spacesim/internal/obs"
)

// maxRestarts bounds recovery attempts: one crash more returns the last
// crash as the error.
const maxRestarts = 8

// RecoveryConfig drives a checkpoint–restart run: the base run plus a fault
// injector.
type RecoveryConfig struct {
	RunConfig
	// Injector supplies the fault timeline. Each segment gets a crash plan
	// and network health re-based onto its own clock origin; armed disk
	// faults corrupt that rank's first checkpoint write of the segment.
	// Nil runs fault-free (but still honors RunConfig.Faults/Checkpoint).
	Injector *faults.Injector
	// NewObs, when non-nil, supplies a fresh observation handle for each
	// segment (attempt is 0-based) in place of Cluster.Obs. The analysis
	// layer requires one run per event log, so a recovered run must not
	// share an Obs across segments; the completing segment's handle is
	// available as Result.Comm.Obs.
	NewObs func(attempt int) *obs.Obs
	// ResumeFromDisk starts the first segment from the newest intact
	// checkpoint already under Checkpoint.Dir instead of the initial
	// conditions — the job-server path after a daemon kill or drain. The
	// restored energy sidecar refills the history prefix, so the completed
	// run is bit-identical to one that was never stopped. With no usable
	// checkpoint on disk the run starts from the initial conditions; a set
	// that verifies but does not fit this run (past its steps, partial
	// bodies, another body count) is an error.
	ResumeFromDisk bool
}

// ProbeFaults runs cfg fault-free, without checkpoints and on a private
// Obs, and draws a fault schedule over that run's virtual makespan on
// cfg.Procs ranks; opt supplies the seed, acceleration and rates. The run it
// returns is the uninterrupted twin BitIdentical compares a recovered run
// against. When the run fails or is interrupted no schedule is drawn.
func ProbeFaults(cfg RunConfig, ics []Body, opt faults.Options) (Result, faults.Schedule) {
	cfg.Checkpoint, cfg.Faults = nil, nil
	cfg.Cluster.Obs = obs.New(false)
	base := Run(cfg, ics)
	if base.Err != nil || base.Interrupted {
		return base, faults.Schedule{}
	}
	opt.Ranks, opt.Horizon = cfg.Procs, base.ElapsedVirtual
	return base, faults.New(opt)
}

// RunRecovered executes a simulation under fault injection with
// checkpoint–restart recovery. On a rank crash it locates the newest intact
// checkpoint (falling back past corrupt ones, or to the initial conditions),
// retires fired faults, re-bases the remaining schedule onto the restart's
// clock origin, and replays. The returned Result is from the completing
// segment — bit-identical to an uninterrupted run of the same
// configuration — with work totals accumulated across all segments.
//
// The returned error is non-nil only when recovery itself fails: the
// restart budget is exhausted, a non-crash abort (deadlock) occurs, or a
// checkpoint stripe turns out to be misrouted or another run's.
func RunRecovered(cfg RecoveryConfig, ics []Body) (Result, faults.Recovery, error) {
	var st faults.Recovery
	if err := cfg.Validate(); err != nil {
		return Result{}, st, err
	}
	if err := ValidateBodies(ics); err != nil {
		return Result{}, st, err
	}
	if cfg.Injector != nil && cfg.Checkpoint == nil {
		return Result{}, st, errors.New("core: fault injection without a checkpoint config cannot recover")
	}
	if cfg.Injector != nil {
		st.DegradedLinkSec, st.FlappingPortSec = cfg.Injector.DegradedSeconds()
	}
	baseNet := cfg.Cluster.Net

	var master Result
	master.Steps = cfg.Steps
	master.EnergyHistory = make([]Energies, cfg.Steps+1)

	offset := 0.0 // global virtual time at the current segment's clock zero
	seg := segment{}
	if cfg.ResumeFromDisk && cfg.Checkpoint != nil && cfg.Checkpoint.Every > 0 {
		step, restore, hist, corrupt, ok, err := lastGoodCheckpoint(cfg.Checkpoint.Dir, cfg.Procs, len(ics), cfg.Steps)
		st.CorruptStripes += corrupt
		if err != nil {
			return master, st, err
		}
		if ok {
			seg = segment{startStep: step, restore: restore, energies: hist}
			st.ResumedFromStep = step
			// The sidecar history is the master prefix: the resumed
			// segment records energies only from step+1 on.
			copy(master.EnergyHistory, hist)
		}
	}
	for {
		rc := cfg.RunConfig
		if cfg.NewObs != nil {
			rc.Cluster.Obs = cfg.NewObs(st.Attempts)
		}
		if st.Crashes > 0 {
			// Publish recovery state before the segment starts so a live
			// reader of the fresh Obs sees it; with a per-segment
			// registry the cumulative crash count is republished.
			p := rc.Cluster.Obs.Progress()
			p.State("recovering")
			if cfg.NewObs != nil {
				for i := 0; i < st.Crashes; i++ {
					p.Recovery()
				}
			} else {
				p.Recovery()
			}
		}
		var diskFaults []int
		if cfg.Injector != nil {
			rc.Faults = cfg.Injector.PlanAt(offset)
			rc.Cluster.Net = baseNet
			if h := cfg.Injector.HealthAt(offset); h != nil {
				rc.Cluster.Net = baseNet.WithHealth(h)
			}
			rc.Checkpoint, diskFaults = corruptingCheckpoint(cfg.Checkpoint, cfg.Injector, cfg.Procs)
		}

		res := run(rc, ics, seg)
		st.Attempts++
		st.TotalVirtualSec += res.ElapsedVirtual
		st.CheckpointWrites += res.CheckpointWrites
		st.CheckpointSec += res.CheckpointSec
		accumulate(&master, &res, seg.startStep)
		// Retire only the disk faults that actually struck a stripe this
		// segment; a drive that never wrote stays armed. (-1 marks consumed;
		// the rank goroutines finished before run returned, so reads are
		// ordered.)
		for _, id := range diskFaults {
			if id < 0 {
				continue
			}
			cfg.Injector.Disarm(id)
		}

		if res.Err == nil {
			master.ElapsedVirtual = res.ElapsedVirtual
			return master, st, nil
		}
		var ce *mp.CrashError
		if !errors.As(res.Err, &ce) {
			return master, st, res.Err
		}
		st.Crashes++
		st.CrashRanks = append(st.CrashRanks, ce.Rank)
		st.CrashTimesSec = append(st.CrashTimesSec, offset+ce.AtSec)
		if st.Crashes > maxRestarts {
			return master, st, fmt.Errorf("core: giving up after %d restarts: %w", maxRestarts, res.Err)
		}

		// Roll back to the newest checkpoint that verifies.
		step, restore, hist, corrupt, ok, err := lastGoodCheckpoint(cfg.Checkpoint.Dir, cfg.Procs, len(ics), cfg.Steps)
		st.CorruptStripes += corrupt
		if err != nil {
			return master, st, err
		}
		lost := res.ElapsedVirtual
		if ok {
			if ck, inSeg := res.CheckpointClocks[step]; inSeg {
				lost = res.ElapsedVirtual - ck
			}
			seg = segment{startStep: step, restore: restore, energies: hist}
		} else {
			seg = segment{}
		}
		st.RestoredSteps = append(st.RestoredSteps, seg.startStep)
		st.LostVirtualSec += lost
		st.ReplayedSteps += max(0, res.CompletedSteps-seg.startStep)

		// The crashed node reboots; its fired fault (and any crash or disk
		// fault overtaken by the outage) is retired, and the surviving
		// schedule is re-based onto the restart's clock origin.
		offset += ce.AtSec
		if cfg.Injector != nil {
			cfg.Injector.DisarmBefore(offset)
		}
	}
}

// corruptingCheckpoint wraps a checkpoint config so each rank with an armed
// disk fault corrupts its first stripe write of the segment. The per-rank
// state is held in slices (ranks only touch their own index), keeping the
// hook safe from concurrent rank goroutines without locking the injector.
// The returned slice records, per rank, the fault ID that actually struck a
// stripe (-1 otherwise) for the driver to disarm once the segment ends.
func corruptingCheckpoint(cp *CheckpointConfig, in *faults.Injector, nprocs int) (*CheckpointConfig, []int) {
	pending := make([]int, nprocs)  // fault to strike on the next write
	consumed := make([]int, nprocs) // fault that struck this segment
	any := false
	for rank := range pending {
		pending[rank], consumed[rank] = -1, -1
		if id, ok := in.DiskFaultAt(rank, in.Sched.Horizon); ok {
			pending[rank] = id
			any = true
		}
	}
	if !any {
		return cp, nil
	}
	wrapped := *cp
	prev := cp.Corrupt
	wrapped.Corrupt = func(rank, step int) bool {
		if id := pending[rank]; id >= 0 {
			pending[rank] = -1
			consumed[rank] = id
			return true
		}
		return prev != nil && prev(rank, step)
	}
	return &wrapped, consumed
}

// accumulate folds one segment's results into the master: work totals sum
// (replayed work is real work), energies recorded by this segment replace
// the master's entries from its start step on, and scalar outcomes track the
// latest segment.
func accumulate(master, res *Result, startStep int) {
	master.Interactions += res.Interactions
	master.Flops += res.Flops
	master.Fetches += res.Fetches
	master.ImbalanceHistory = append(master.ImbalanceHistory, res.ImbalanceHistory...)
	if res.MaxImbalance > master.MaxImbalance {
		master.MaxImbalance = res.MaxImbalance
	}
	lo := 0
	if startStep > 0 {
		lo = startStep + 1 // the restored step's energies came from the writer
	}
	for s := lo; s <= res.CompletedSteps && s < len(res.EnergyHistory); s++ {
		master.EnergyHistory[s] = res.EnergyHistory[s]
	}
	master.Bodies = res.Bodies
	master.Comm = res.Comm
	master.CompletedSteps = res.CompletedSteps
	master.Interrupted = res.Interrupted
	master.Gflops = res.Gflops
	master.MflopsPerProc = res.MflopsPerProc
	master.CheckpointClocks = res.CheckpointClocks
}
