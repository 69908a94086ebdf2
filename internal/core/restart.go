package core

import (
	"errors"
	"fmt"
	"slices"

	"spacesim/internal/faults"
	"spacesim/internal/mp"
	"spacesim/internal/obs"
)

// maxRestarts bounds recovery attempts: one crash more returns the last
// crash as the error.
const maxRestarts = 8

// RecoveryConfig drives a checkpoint–restart run: the base run plus a fault
// schedule.
type RecoveryConfig struct {
	RunConfig
	// Schedule is the drawn fault timeline; the zero schedule injects no
	// faults. Each segment gets a crash plan and network health re-based
	// onto its own clock origin, and each rank's first pending disk fault
	// corrupts its first checkpoint stripe of the segment.
	Schedule faults.Schedule
	// NewObs, when non-nil, supplies a fresh observation handle for each
	// segment in place of Cluster.Obs. The analysis layer requires one run
	// per event log, so a recovered run must not share an Obs across
	// segments; the completing segment's handle is available as
	// Result.Comm.Obs.
	NewObs func() *obs.Obs
}

// ProbeFaults runs cfg fault-free, without checkpoints and on a private
// Obs, and draws a fault schedule over that run's virtual makespan on
// cfg.Procs ranks; opt supplies the seed, acceleration and rates. The run it
// returns is the uninterrupted twin BitIdentical compares a recovered run
// against. When the run fails or is interrupted no schedule is drawn.
func ProbeFaults(cfg RunConfig, ics []Body, opt faults.Options) (Result, faults.Schedule) {
	cfg.Checkpoint = nil
	cfg.Cluster.Obs = obs.New(false)
	base := Run(cfg, ics)
	if base.Err != nil || base.Interrupted {
		return base, faults.Schedule{}
	}
	opt.Ranks, opt.Horizon = cfg.Procs, base.ElapsedVirtual
	return base, faults.New(opt)
}

// RunRecovered executes a simulation under fault injection with
// checkpoint–restart recovery. A run whose checkpoint directory already
// holds an intact set that fits it resumes from the newest one (the job
// server after a kill or drain); the restored energy sidecar refills the
// history prefix, so the completed run is bit-identical to one that was
// never stopped. On a rank crash it locates the newest intact checkpoint
// (falling back past corrupt ones, or to the initial conditions), retires
// fired faults, re-bases the remaining schedule onto the restart's clock
// origin, and replays. The returned Result is from the completing segment —
// bit-identical to an uninterrupted run of the same configuration — with
// work totals accumulated across all segments.
//
// The returned error is non-nil only when recovery itself fails: the
// restart budget is exhausted, a non-crash abort (deadlock) occurs, or a
// checkpoint set turns out to be misrouted, another run's, or one that
// does not fit this run (past its steps, partial bodies, another body
// count).
func RunRecovered(cfg RecoveryConfig, ics []Body) (Result, faults.Recovery, error) {
	var st faults.Recovery
	if err := cfg.Validate(); err != nil {
		return Result{}, st, err
	}
	if err := ValidateBodies(ics); err != nil {
		return Result{}, st, err
	}
	sched := cfg.Schedule
	if len(sched.Faults) > 0 && cfg.Checkpoint == nil {
		return Result{}, st, errors.New("core: fault injection without a checkpoint config cannot recover")
	}
	st.DegradedLinkSec, st.FlappingPortSec = sched.DegradedSeconds()
	baseNet := cfg.Cluster.Net

	var master Result
	master.Steps = cfg.Steps
	master.EnergyHistory = make([]Energies, cfg.Steps+1)
	// restore builds the segment that starts from the newest intact
	// checkpoint on disk (the zero segment: the initial conditions).
	restore := func() (segment, error) {
		if cfg.Checkpoint == nil || cfg.Checkpoint.Every <= 0 {
			return segment{}, nil
		}
		seg, corrupt, err := lastGoodCheckpoint(cfg.Checkpoint.Dir, cfg.Procs, len(ics), cfg.Steps)
		st.CorruptStripes += corrupt
		// The sidecar history is the master prefix: the segment records
		// energies only from its start step on.
		copy(master.EnergyHistory, seg.energies)
		return seg, err
	}

	fired := map[int]bool{} // IDs of the crashes and disk faults that fired
	offset := 0.0           // global virtual time at the current segment's clock zero
	seg, err := restore()
	if err != nil {
		return master, st, err
	}
	st.ResumedFromStep = seg.startStep
	for {
		rc := cfg.RunConfig
		if cfg.NewObs != nil {
			rc.Cluster.Obs = cfg.NewObs()
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
		if h := sched.Health(offset); h != nil {
			rc.Cluster.Net = baseNet.WithHealth(h)
		}
		disk := sched.DiskFaults(fired)
		seg.plan, seg.disk = sched.CrashPlan(fired, offset), slices.Clone(disk)

		res := run(rc, ics, seg)
		st.Attempts++
		st.TotalVirtualSec += res.ElapsedVirtual
		st.CheckpointWrites += res.CheckpointWrites
		st.CheckpointSec += res.CheckpointSec
		accumulate(&master, &res, seg.startStep)
		// Retire only the disk faults that struck a stripe this segment
		// (their rank cleared its entry); a drive that never wrote stays
		// armed.
		for rank, id := range disk {
			if id >= 0 && seg.disk[rank] < 0 {
				fired[id] = true
			}
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
		if seg, err = restore(); err != nil {
			return master, st, err
		}
		lost := res.ElapsedVirtual
		if ck, inSeg := res.CheckpointClocks[seg.startStep]; inSeg && seg.restore != nil {
			lost = res.ElapsedVirtual - ck
		}
		st.RestoredSteps = append(st.RestoredSteps, seg.startStep)
		st.LostVirtualSec += lost
		st.ReplayedSteps += max(0, res.CompletedSteps-seg.startStep)

		// The crashed node reboots; its fired fault (and any crash or disk
		// fault overtaken by the outage) is retired, and the surviving
		// schedule is re-based onto the restart's clock origin.
		offset += ce.AtSec
		sched.Retire(fired, offset)
	}
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
