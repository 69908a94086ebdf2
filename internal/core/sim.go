package core

import (
	"fmt"
	"math"
	"sort"

	"spacesim/internal/htree"
	"spacesim/internal/machine"
	"spacesim/internal/mp"
	"spacesim/internal/obs"
	"spacesim/internal/vec"
)

// Result summarizes a parallel simulation run.
type Result struct {
	Steps int
	// EnergyHistory holds the conservation diagnostics after every step
	// (index 0 is the initial state).
	EnergyHistory []Energies
	// Interactions and Flops total the force-evaluation work across ranks.
	Interactions int64
	Flops        float64
	// ElapsedVirtual is the modeled wall-clock time; Gflops the modeled
	// aggregate application rate (the Table 6 quantity).
	ElapsedVirtual float64
	Gflops         float64
	MflopsPerProc  float64
	// Fetches counts remote-cell expansion requests.
	Fetches int64
	// MaxImbalance is the max over force phases of (max rank work / mean);
	// ImbalanceHistory holds the per-evaluation values (the first entry is
	// the count-balanced decomposition, before work weights feed back).
	MaxImbalance     float64
	ImbalanceHistory []float64
	// Bodies is the gathered final state (sorted by ID) when requested.
	Bodies []Body
	// Comm are the message-layer statistics.
	Comm mp.Stats
	// Err is non-nil when the run aborted (injected crash, deadlock)
	// instead of completing; see mp.Stats.Err for the error taxonomy.
	Err error
	// CompletedSteps counts the steps rank 0 finished — equal to Steps on
	// a clean run, the crash-time progress on an aborted one.
	CompletedSteps int
	// CheckpointWrites counts completed checkpoints (each is one stripe
	// per rank); CheckpointClocks maps a checkpointed step to rank 0's
	// virtual clock just after writing it; CheckpointSec is rank 0's
	// virtual disk time spent on checkpoint writes.
	CheckpointWrites int
	CheckpointClocks map[int]float64
	CheckpointSec    float64
	// Interrupted reports that RunConfig.Interrupt stopped the run at a
	// step boundary: the state through CompletedSteps is checkpointed
	// (when a checkpoint config is set), the partial state is gathered,
	// and Err stays nil — an interrupted run is drained, not failed.
	Interrupted bool
}

// BitIdentical reports whether two runs gathered the same bodies (ID,
// position, velocity, mass) and the same energy history, bit for bit: the
// test a recovered run must pass against its uninterrupted twin.
func BitIdentical(a, b Result) bool {
	if len(a.Bodies) != len(b.Bodies) || len(a.EnergyHistory) != len(b.EnergyHistory) {
		return false
	}
	for i := range a.Bodies {
		x, y := a.Bodies[i], b.Bodies[i]
		if x.ID != y.ID || x.Pos != y.Pos || x.Vel != y.Vel || x.Mass != y.Mass {
			return false
		}
	}
	for i := range a.EnergyHistory {
		if a.EnergyHistory[i] != b.EnergyHistory[i] {
			return false
		}
	}
	return true
}

// RunConfig couples the cluster model and run controls.
type RunConfig struct {
	Cluster machine.Cluster
	Procs   int
	Steps   int
	Opt     Options
	// GatherBodies returns the final particle state in Result.Bodies.
	GatherBodies bool
	// Checkpoint enables periodic state stripes for crash recovery.
	Checkpoint *CheckpointConfig
	// Engine is read by no code: retained for bench/, which builder PRs
	// may not edit and which spells RunConfig{Engine: mp.EngineEvent}
	// (see mp.Engine). Goes with the next [benchmark] PR.
	Engine mp.Engine
	// EngineWorkers is read by no code: retained for bench/, which spells
	// RunConfig{EngineWorkers: 1}. The pool is as wide as the host, and the
	// schedule repeats at any width, since the force walk runs as a polling
	// region (mp.Rank.OneSlot). Goes with the next [benchmark] PR.
	EngineWorkers int
	// Interrupt, when non-nil, is polled host-side by rank 0 at every step
	// boundary and the decision broadcast to all ranks (one extra scalar
	// allreduce per step, so the poll never desynchronizes the world). A
	// true return makes every rank flush a checkpoint at the boundary
	// (when Checkpoint is set and the step is not already checkpointed),
	// gather the partial state, and return with Result.Interrupted — the
	// cooperative stop behind SIGTERM drains and watchdog deadlines.
	// Physics is unaffected: the poll only adds collective time, so an
	// interrupted-then-resumed run completes bit-identical to an
	// uninterrupted run with the same Interrupt wiring.
	Interrupt func() bool
}

// Validate reports the first field of the configuration, taken after option
// defaults, that no run can honour. Run and RunRecovered return the error
// before any rank starts; callers that take configurations from outside the
// program (spacesim, serve.JobSpec) call it for the message.
func (cfg RunConfig) Validate() error {
	opt := cfg.Opt.withDefaults()
	switch {
	case cfg.Procs < 1 || cfg.Procs > cfg.Cluster.Nodes:
		return fmt.Errorf("core: procs %d outside [1, %d] (the nodes of %s)", cfg.Procs, cfg.Cluster.Nodes, cfg.Cluster.Name)
	case cfg.Steps < 0:
		return fmt.Errorf("core: steps %d is negative", cfg.Steps)
	case !finite(opt.Theta) || opt.Theta <= 0:
		return fmt.Errorf("core: theta %g must be finite and positive", opt.Theta)
	case !finite(opt.Eps) || opt.Eps < 0:
		return fmt.Errorf("core: eps %g must be finite and non-negative", opt.Eps)
	case !finite(opt.DT) || opt.DT < 0:
		return fmt.Errorf("core: dt %g must be finite and non-negative", opt.DT)
	case opt.MaxLeaf < 0 || opt.Workers < 0:
		return fmt.Errorf("core: max leaf %d and workers %d must be non-negative", opt.MaxLeaf, opt.Workers)
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Sides of the bounding cube a run accepts: squared separations inside it
// stay far from the ends of the double range.
const (
	minBoxSide = 0x1p-400
	maxBoxSide = 0x1p400
)

// ValidateBodies reports the first thing about the initial conditions that
// no run can integrate: a position, velocity or mass that is NaN or
// infinite, or a bounding cube (a side of 1 around coincident bodies) whose
// side is outside [2^-400, 2^400] or whose corner overflows. Run and
// RunRecovered return the error before any rank starts. The cube is the one
// every step decomposes in, and Run checks it again each step: bodies that
// leave it mid-run stop the run with the same error for that step.
func ValidateBodies(ics []Body) error {
	if len(ics) == 0 {
		return nil
	}
	finite3 := func(v vec.V3) bool { return finite(v[0]) && finite(v[1]) && finite(v[2]) }
	mn, mx := ics[0].Pos, ics[0].Pos
	for i := range ics {
		b := &ics[i]
		switch {
		case !finite3(b.Pos):
			return fmt.Errorf("core: body %d has position %v", i, b.Pos)
		case !finite3(b.Vel):
			return fmt.Errorf("core: body %d has velocity %v", i, b.Vel)
		case !finite(b.Mass):
			return fmt.Errorf("core: body %d has mass %g", i, b.Mass)
		}
		mn, mx = vec.Min(mn, b.Pos), vec.Max(mx, b.Pos)
	}
	if err := cubeError(htree.BoundingCube([]vec.V3{mn, mx})); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// segment is one run between restarts: where it starts — from the initial
// conditions (zero value), or from a restored checkpoint at startStep with
// each rank's verified stripe payload in restore and the energy history
// through startStep in energies (seeded into the segment so later sidecar
// writes, and the segment's own Result, always carry a complete prefix) —
// and the faults that strike it.
type segment struct {
	startStep int
	restore   [][]float64
	energies  []Energies
	// plan schedules rank crashes in the segment's clock (nil: none).
	plan *mp.FaultPlan
	// disk holds, per rank, the disk fault that corrupts the first
	// checkpoint stripe the rank starts writing at or after diskAt[rank] on
	// the segment's clock (-1, or past the end: a healthy drive). A rank
	// clears its own entry when its fault strikes.
	disk   []int
	diskAt []float64
}

// runOptions maps the segment onto the message layer's options. A segment
// with crashes scheduled runs on one slot: a crash aborts the world at
// once, and where the other ranks are then — which stripes they wrote, how
// far their clocks got — is where the host had taken them, which only one
// slot makes repeatable.
func (seg segment) runOptions() mp.RunOptions {
	opt := mp.RunOptions{Plan: seg.plan}
	if !seg.plan.Empty() {
		opt.Workers = 1
	}
	return opt
}

// strikes reports whether rank's drive corrupts the stripe whose write
// starts at clock t, and clears the rank's fault: one bad stripe per dead
// drive.
func (seg segment) strikes(rank int, t float64) bool {
	if rank >= len(seg.disk) || seg.disk[rank] < 0 || t < seg.diskAt[rank] {
		return false
	}
	seg.disk[rank] = -1
	return true
}

// Run executes a parallel N-body simulation of the given bodies. The input
// slice is treated as the global initial condition; it is scattered
// block-wise, rebalanced by the weighted decomposition every step, and
// integrated with kick-drift-kick leapfrog.
func Run(cfg RunConfig, ics []Body) Result {
	return run(cfg, ics, segment{})
}

// run is Run with an explicit start segment — the restart driver re-enters
// here after rolling back to a checkpoint.
func run(cfg RunConfig, ics []Body, seg segment) Result {
	res := Result{Steps: cfg.Steps}
	if res.Err = cfg.Validate(); res.Err != nil {
		return res
	}
	if res.Err = ValidateBodies(ics); res.Err != nil {
		return res
	}
	opt := cfg.Opt.withDefaults()
	energyAt := make([]Energies, cfg.Steps+1)
	copy(energyAt, seg.energies)
	var totalInts, totalFetches int64
	var totalFlops float64
	var imbHist []float64
	var gathered []Body
	completed := seg.startStep
	interrupted := false
	ckWrites := 0
	ckSec := 0.0
	ckClocks := map[int]float64{}
	cp := cfg.Checkpoint
	if cp != nil && cp.Every <= 0 {
		cp = nil
	}
	var stepErr error // rank 0's; every rank stops at the same step

	st := mp.RunWith(cfg.Cluster, cfg.Procs, seg.runOptions(), func(r *mp.Rank) {
		var local []Body

		// Rank 0 publishes run progress into the metrics registry (all
		// publisher methods are nil-safe, so other ranks call through a nil
		// handle). Gauges fold with Max, so a rollback replaying steps
		// never moves the externally visible fraction backwards. A resumed
		// segment publishes its restored step first, so the first progress
		// mark, which the rate and ETA count from, sits at that step.
		var prog *obs.Progress
		if r.ID() == 0 {
			prog = r.WorldObs().Progress()
			if seg.startStep > 0 {
				prog.StepDone(seg.startStep, r.Clock())
			}
			prog.SetTotal(cfg.Steps)
			prog.State("running")
		}

		// Per-rank arenas: every step's tree rebuild reuses this rank's
		// key/body/cell storage, and every evaluation its reply and request
		// tables, instead of re-allocating. Arenas are exclusive
		// state, so each rank goroutine gets its own (any arena set on
		// cfg.Opt is deliberately not shared).
		ropt := opt
		ropt.BuildArena = &htree.Arena{}
		fa := &fetchArena{}
		// spare is the body array the last decomposition took, which the
		// next one builds its local array in (decompose).
		var spare []Body

		// eval computes the forces at step s, or reports that the bodies have
		// left the cube a run can integrate in. The cube is the world's, so
		// every rank decides alike and none waits in a collective.
		eval := func(s int) ([]Body, []vec.V3, []float64, TraversalStats, bool) {
			endDecomp := r.Span("phase", "decompose")
			bodies, splitters, boxLo, boxSize := decompose(r, local, spare)
			if r.Size() > 1 {
				spare = local
			}
			endDecomp()
			if err := cubeError(boxLo, boxSize); err != nil {
				if r.ID() == 0 {
					stepErr = fmt.Errorf("core: step %d: %w", s, err)
				}
				return nil, nil, nil, TraversalStats{}, false
			}
			dt := buildDistributed(r, bodies, splitters, boxLo, boxSize, ropt, fa)
			acc, pot, ts := dt.ComputeForces(bodies)
			// Feed each body's interaction count back as its decomposition
			// weight — "the amount of data that ends up in each processor is
			// weighted by the work associated with each item."
			for i := range bodies {
				bodies[i].Work = ts.PerBody[i]
			}
			return bodies, acc, pot, ts, true
		}

		// lastCk is the most recent step this world checkpointed (the
		// restored step on a resume — its stripes are already on disk), so
		// an interrupt flush never rewrites an existing checkpoint.
		lastCk := -1
		if seg.restore != nil {
			lastCk = seg.startStep
		}

		var acc []vec.V3
		var pot []float64
		var ts TraversalStats
		var ok bool
		// checkpoint writes the state after step s under the progress
		// phase name; rank 0 books the write.
		checkpoint := func(name string, s int) {
			prog.Phase(name)
			t0 := r.Clock()
			writeCheckpoint(r, cp, s, local, acc, energyAt[:s+1], seg.strikes(r.ID(), t0))
			lastCk = s
			if r.ID() == 0 {
				ckWrites++
				ckClocks[s] = r.Clock()
				ckSec += r.Clock() - t0
				prog.Checkpoint()
			}
		}
		if seg.restore != nil {
			// Resume: the restored stripe carries this rank's exact bodies
			// (with decomposition weights) and accelerations, so the
			// initial evaluation is skipped and the next step's opening
			// half-kick reuses the stored forces bit for bit. The restored
			// step's diagnostics were already recorded by the segment that
			// wrote the checkpoint.
			local, acc = decodeState(seg.restore[r.ID()])
			r.ChargeDisk(float64(len(seg.restore[r.ID()]) * 8))
		} else {
			// Block scatter of the initial conditions.
			prog.Phase("init-eval")
			n, p := len(ics), r.Size()
			lo, hi := n*r.ID()/p, n*(r.ID()+1)/p
			local = append([]Body(nil), ics[lo:hi]...)
			if local, acc, pot, ts, ok = eval(0); !ok {
				return
			}
			if e := recordStats(r, ts, local, pot, &totalInts, &totalFlops, &totalFetches, &imbHist); r.ID() == 0 {
				energyAt[0] = e
			}
		}

		for s := seg.startStep; s < cfg.Steps; s++ {
			// Cooperative stop: rank 0 polls the host-side flag, the
			// decision rides a collective so every rank agrees on the
			// boundary, and the agreed state is flushed as a checkpoint
			// before the world drains into the gather phase.
			if cfg.Interrupt != nil {
				flag := 0.0
				if r.ID() == 0 && cfg.Interrupt() {
					flag = 1
				}
				if r.AllreduceScalar(flag, mp.OpMax) > 0 {
					if cp != nil && lastCk != s {
						checkpoint("interrupt-checkpoint", s)
					}
					if r.ID() == 0 {
						interrupted = true
						prog.State("interrupted")
					}
					break
				}
			}
			prog.Phase("step")
			endStep := r.Span("phase", "step")
			// kick half, drift
			for i := range local {
				local[i].Vel = local[i].Vel.AddScaled(opt.DT/2, acc[i])
				local[i].Pos = local[i].Pos.AddScaled(opt.DT, local[i].Vel)
			}
			r.Charge(float64(12*len(local)), 0.5, float64(96*len(local)))
			if local, acc, pot, ts, ok = eval(s + 1); !ok {
				endStep()
				return
			}
			for i := range local {
				local[i].Vel = local[i].Vel.AddScaled(opt.DT/2, acc[i])
			}
			r.Charge(float64(6*len(local)), 0.5, float64(48*len(local)))
			if e := recordStats(r, ts, local, pot, &totalInts, &totalFlops, &totalFetches, &imbHist); r.ID() == 0 {
				energyAt[s+1] = e
			}
			endStep()
			if r.ID() == 0 {
				completed = s + 1
				prog.StepDone(s+1, r.Clock())
			}
			if cp != nil && (s+1)%cp.Every == 0 && s+1 < cfg.Steps {
				checkpoint("checkpoint", s+1)
			}
		}

		prog.Phase("gather")
		if cfg.GatherBodies {
			parts := r.AllgatherAny(local, int64(len(local)*bodyWireBytes))
			if r.ID() == 0 {
				var all []Body
				for _, pt := range parts {
					all = append(all, pt.([]Body)...)
				}
				sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
				gathered = all
			}
		}
	})

	res.Err = st.Err
	if res.Err == nil {
		res.Err = stepErr
	}
	if p := st.Obs.Progress(); res.Err != nil {
		p.State("crashed")
	} else if !interrupted {
		p.Phase("done")
		p.State("done")
	}

	res.EnergyHistory = energyAt
	res.Interactions = totalInts
	res.Flops = totalFlops
	res.Fetches = totalFetches
	res.ImbalanceHistory = imbHist
	for _, v := range imbHist {
		if v > res.MaxImbalance {
			res.MaxImbalance = v
		}
	}
	res.Bodies = gathered
	res.Comm = st
	res.CompletedSteps = completed
	res.Interrupted = interrupted
	res.CheckpointWrites = ckWrites
	res.CheckpointClocks = ckClocks
	res.CheckpointSec = ckSec
	res.ElapsedVirtual = st.ElapsedVirtual
	if st.ElapsedVirtual > 0 {
		res.Gflops = totalFlops / st.ElapsedVirtual / 1e9
		res.MflopsPerProc = totalFlops / st.ElapsedVirtual / 1e6 / float64(cfg.Procs)
	}
	return res
}

// recordStats folds one rank's traversal stats into the shared totals and
// returns the conservation diagnostics, from one sum reduction and one max.
// Writes are rank-parallel, so reduce through the communication layer and
// let rank 0 publish (all ranks write the same reduced values). The
// potential from the tree counts each pair twice (once per body), so
// U = sum(m*pot)/2.
func recordStats(r *mp.Rank, ts TraversalStats, local []Body, pot []float64, ints *int64, flops *float64, fetches *int64, imbHist *[]float64) Energies {
	var ke, pe float64
	var mom, ang vec.V3
	for i := range local {
		m := local[i].Mass
		ke += 0.5 * m * local[i].Vel.Norm2()
		pe += 0.5 * m * pot[i]
		mom = mom.AddScaled(m, local[i].Vel)
		ang = ang.Add(local[i].Pos.Cross(local[i].Vel).Scale(m))
	}
	sums := r.Allreduce([]float64{
		float64(ts.BodyInteractions + ts.CellInteractions),
		ts.Flops,
		float64(ts.Fetches),
		ke, pe, mom[0], mom[1], mom[2], ang[0], ang[1], ang[2],
	}, mp.OpSum)
	maxWork := r.AllreduceScalar(ts.Flops, mp.OpMax)
	if r.ID() == 0 {
		*ints += int64(sums[0])
		*flops += sums[1]
		*fetches += int64(sums[2])
		mean := sums[1] / float64(r.Size())
		if mean > 0 {
			*imbHist = append(*imbHist, maxWork/mean)
		}
	}
	return Energies{
		Kinetic:   sums[3],
		Potential: sums[4],
		Momentum:  vec.V3{sums[5], sums[6], sums[7]},
		AngMom:    vec.V3{sums[8], sums[9], sums[10]},
	}
}
