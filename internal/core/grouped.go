package core

// The grouped force engine (2HOT's grouped walk, Warren SC'13): one walker
// per sink group ("bucket" below) of the local tree — htree.Tree.Groups, the
// largest cells of at most 80 bodies — traverses the distributed tree once,
// testing the MAC against the group's bounding sphere — distance measured
// from its center of mass, opening radius widened by its Bmax — so every
// accepted cell satisfies the per-body criterion for all sinks in the group
// and the per-body error bound is preserved. The walk accumulates an
// interaction list by reference (gravity.List: pointers to the multipoles
// of accepted cells, segments of direct-interaction bodies, all of it
// payload that is resident and unchanging for the evaluation), which the
// batched kernels evaluate for the whole bucket.
//
// Every list is gathered by the one loop of htree.Tree.Gather and applied by
// Tree.EvalBucket, as in the serial Tree.AccelAllGrouped; the walker is the
// loop's htree.Far, laying out the top past the local tree's indices
// (dtree.go) and opening another rank's branch in the owner's tree. This
// file adds the one gather per group and the fetch protocol with its
// deterministic charging.
//
// Walk once. Section 4.2 hides latency by putting walks aside: "we
// effectively do explicit context switching using a software queue to keep
// track of which computations have been put aside waiting for messages to
// arrive". Here a fetch reply makes the whole subtree below the branch asked
// for resident (dtree.go), so the only cells a group's walk can find missing
// are other ranks' top branches, and the walk itself names them: each
// group's gather starts at the top's root and, for every other rank's branch
// it does not accept, records the branch among the group's opens and goes
// through the owner's cell in place (Open). The rank gathers and evaluates
// every group on one host loop (evalGroups) before it enters the polling
// region. The region replays the fetch protocol alone (replay): one request
// per opened branch, in the order of the groups' stack (the last group
// first) and of each group's walk; then, in that order, the rank polls and
// yields until every branch a group opens has arrived, and charges the group
// from its list's lengths, a poll after each.
//
// Determinism rule: the requests, the arrival tests, interaction counting,
// virtual-time charging and every poll run on the rank's own goroutine in
// group order; the loop gathers and evaluates while the rank waits for it,
// each group writing only its walker, its disjoint output range and its run
// of its goroutine's opens, from a list in depth-first tree order — a
// function of the tree and the group, not of when fetch replies arrived or
// which goroutine gathered it. The result is therefore bit-identical for any
// Workers count, and so is every poll point and charge: they come from the
// arrival of the replies and the lists' lengths alone. Nothing a gather
// reads changes under the loop: the replicated top, the routes and the
// world's table of rank trees are fixed at the branch exchange, and the
// local tree and the other ranks' trees that the lists refer into are
// immutable until every rank is through its evaluation (DESIGN.md §6, "What
// the world shares").

import (
	"spacesim/internal/gravity"
	"spacesim/internal/htree"
	"spacesim/internal/par"
	"spacesim/internal/vec"
)

// bucketWalker is one sink group's walk, and the htree.Far of it: it lays
// out the top with the rank's routes and opens another rank's branch in the
// owner's tree.
type bucketWalker struct {
	dt   *DTree
	cell *htree.Cell
	mac  htree.BucketMAC
	// slot.opens[lo:hi] are the branches the group's gather opens, in its
	// order; those below lo have arrived (resident).
	slot   *gatherSlot
	lo, hi int32
	nc, nb int // the lengths of its list: cells and bodies
}

// Layout hands the walk the top with this rank's routes through it.
func (w *bucketWalker) Layout() ([]htree.Cell, []int32) {
	return w.dt.top.cells, w.dt.route
}

// Open records another rank's top branch j among the group's opens and
// resolves it to the owner's cell of that branch in the owner's tree, from
// the world's table of rank trees.
func (w *bucketWalker) Open(j int32) (*htree.Tree, int32) {
	w.slot.opens = append(w.slot.opens, j)
	top := w.dt.top
	return top.trees[top.owner[j]], top.at[j]
}

// resident reports whether every branch the group's walk opens has arrived,
// moving lo past those that have.
func (w *bucketWalker) resident() bool {
	for w.lo < w.hi && w.dt.arrived[w.slot.opens[w.lo]] {
		w.lo++
	}
	return w.lo == w.hi
}

// cellFlops is the accounted flop cost of one cell-body (quadrupole)
// interaction; body-body interactions cost gravity.KernelFlops.
const cellFlops = 70

// kernelEff is the fraction of node peak the force kernels sustain when
// their flops are charged to virtual time: ~630 Mflop/s of the 5.06 Gflop/s
// SS node, the Karp micro-kernel rate of Table 5 as Table 6 uses it.
const kernelEff = 0.125

// TraversalStats aggregates the work of a force evaluation on one rank.
type TraversalStats struct {
	BodyInteractions int64
	CellInteractions int64
	Fetches          int64
	Flops            float64
	// PerBody is the interaction count of each local body, the work weight
	// fed back into the next domain decomposition.
	PerBody []float64
}

// chargeFunc converts interaction counts accumulated since the last call
// into virtual compute time; the engine calls it at deterministic points so
// virtual-time accounting does not depend on evaluation concurrency.
func (dt *DTree) chargeFunc(st *TraversalStats) func() {
	var lastBody, lastCell int64
	return func() {
		db := st.BodyInteractions - lastBody
		dc := st.CellInteractions - lastCell
		if db == 0 && dc == 0 {
			return
		}
		flops := float64(db)*gravity.KernelFlops + float64(dc)*cellFlops
		st.Flops += flops
		dt.r.Charge(flops, kernelEff, float64(db+dc)*32)
		lastBody, lastCell = st.BodyInteractions, st.CellInteractions
	}
}

// ComputeForces evaluates the gravitational field at every local body using
// the distributed tree, returning accelerations, potentials and work stats.
// All ranks must call it collectively (it quiesces the ABM traffic). Each
// rank gathers and evaluates its groups first (evalGroups); then the ranks
// enter a polling region (mp.Rank.OneSlot) together, in rank order, onto one
// execution slot, for the fetch protocol and the charging (replay), so what
// each poll finds — and the virtual schedule — is the same at any width of
// the scheduler's pool. Transient state from any previous evaluation on this
// tree is dropped first, so repeated evaluations do not accumulate unbounded
// state.
func (dt *DTree) ComputeForces(bodies []Body) (acc []vec.V3, pot []float64, st TraversalStats) {
	acc, pot = make([]vec.V3, len(bodies)), make([]float64, len(bodies))
	st.PerBody = make([]float64, len(bodies))
	dt.resetCaches()
	walkers := dt.evalGroups(acc, pot)
	dt.r.OneSlot(func() { dt.replay(walkers, &st) })
	return acc, pot, st
}

// evalGroups gathers and evaluates every local group on one host loop,
// Workers wide and one more for the rank, which would otherwise only wait
// for it; each of the loop's goroutines has a slot of its own in the rank's
// arena, for its lists and the branches its groups open. Each gather starts
// at the top's root, by its route (the local root on one rank). It returns
// the groups' walkers, which hold their opens and list lengths for replay.
// It sends nothing and moves no clock.
func (dt *DTree) evalGroups(acc []vec.V3, pot []float64) []bucketWalker {
	if dt.local == nil || len(acc) == 0 {
		return nil
	}
	defer dt.r.Label("eval")()
	groups := dt.local.Groups()
	walkers := make([]bucketWalker, len(groups))
	width := par.Width(dt.opt.Workers, len(walkers)) + 1
	for len(dt.slots) < width {
		dt.slots = append(dt.slots, new(gatherSlot))
	}
	par.For(len(walkers), width, func(k, i int) {
		w, slot := &walkers[i], dt.slots[k]
		*w = bucketWalker{dt: dt, cell: groups[i], mac: htree.NewGroupMAC(groups[i], dt.opt.Theta), slot: slot, lo: int32(len(slot.opens))}
		sc := &slot.sc
		sc.Reset()
		sc.Push(dt.route[0])
		dt.local.Gather(&w.mac, sc, w)
		w.hi = int32(len(slot.opens))
		w.nc, w.nb = len(sc.List.Cells), sc.List.Bodies()
		dt.local.EvalBucket(w.cell, dt.opt.Eps, sc, acc, pot)
	})
	return walkers
}

// replay is ComputeForces inside its region: the fetch protocol of the
// evaluation evalGroups made. It asks once for every branch the groups open,
// in the groups' stack order and each group's walk order; then, in the
// groups' stack order, it polls and yields until a group's branches have
// arrived, and charges the group. A rank without groups serves everyone
// else's fetches. Every reply this rank waits for is in before it quiesces,
// serving the others' requests until every rank's are.
func (dt *DTree) replay(walkers []bucketWalker, st *TraversalStats) {
	defer dt.r.Span("phase", "walk")()
	for i := len(walkers) - 1; i >= 0; i-- {
		w := &walkers[i]
		for _, j := range w.slot.opens[w.lo:w.hi] {
			dt.requestBranch(j, st)
		}
	}
	dt.abm.FlushAll()
	charge := dt.chargeFunc(st)
	for i := len(walkers) - 1; i >= 0; i-- {
		w := &walkers[i]
		for !w.resident() {
			if dt.abm.Poll() == 0 {
				// Hand the execution slot to the rank we are waiting on
				// (required: the region is one slot wide).
				dt.r.Yield()
			}
		}
		dt.finishBucket(w, st, charge)
		dt.abm.Poll()
	}
	dt.abm.Quiesce()
}

// finishBucket accounts the group's work deterministically, from its list's
// lengths alone.
func (dt *DTree) finishBucket(w *bucketWalker, st *TraversalStats, charge func()) {
	ns := w.cell.Hi - w.cell.Lo
	nc, nb := w.nc, w.nb
	dt.cBuckets.Inc()
	dt.hListCells.Observe(float64(nc))
	dt.hListBodies.Observe(float64(nb))
	st.CellInteractions += int64(ns * nc)
	// Every sink meets every listed body except itself: the bucket's own
	// bodies are always on the list as bodies, once each, since no cell that
	// holds one is ever accepted (Owns on local cells, the key test on fills).
	st.BodyInteractions += int64(ns*nb - ns)
	work := float64(nc + nb - 1)
	for i := w.cell.Lo; i < w.cell.Hi; i++ {
		st.PerBody[dt.local.Bodies[i].ID] = work
	}
	charge()
}
