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
// loop's htree.Far, laying out the indices past the local tree's (dtree.go)
// and resolving a resident remote branch to the owner's tree it is walked in.
// This file adds the top walks that fetch, the one gather per group and
// deterministic charging.
//
// Walk once. Section 4.2 hides latency by putting walks aside: "we
// effectively do explicit context switching using a software queue to keep
// track of which computations have been put aside waiting for messages to
// arrive". Here a fetch reply makes the whole subtree below the branch asked
// for resident (dtree.go), so the only cells a group's walk can find missing
// are other ranks' top branches, and which of those it opens the replicated
// top alone decides. Each group first walks the top (walkTop), asking once
// per rank for every remote branch it does not accept and recording where it
// stopped; then, in the order of the groups' stack (the last group first),
// each group is gathered once from there, as soon as every branch it opens is
// resident — the rank polls and yields until then. The group the rank reaches
// and the groups after it that are resident too form a run, gathered and
// evaluated at once on one host loop (evalRun); then the run's groups are
// charged, a poll after each. A miss in a group walk is a bug, and panics.
//
// Determinism rule: the top walks, the residency tests, interaction counting,
// virtual-time charging and every poll run on the rank's own goroutine in
// group order, between runs; a run's loop gathers and evaluates while the
// rank waits for it, each group writing only its disjoint output range, from
// a list in depth-first tree order — a function of the tree and the group,
// not of when fetch replies arrived or which goroutine gathered it. The
// result is therefore bit-identical for any Workers count, and so is every
// poll point and charge: residency only grows, so the groups of a run would
// have been resident one by one too, and their charges come from the lists'
// lengths alone. Nothing a gather reads changes under the loop: the
// replicated top is never written, the routes and the reply table change
// only in a poll, and the local tree and the other ranks' trees that the
// lists refer into are immutable once built.

import (
	"context"
	"runtime/pprof"
	"strconv"

	"spacesim/internal/gravity"
	"spacesim/internal/htree"
	"spacesim/internal/par"
	"spacesim/internal/vec"
)

// bucketWalker is one sink group's walk, and the htree.Far of it: it lays
// out the indices past the local tree's and resolves a resident remote
// branch to the owner's tree.
type bucketWalker struct {
	dt   *DTree
	cell *htree.Cell
	mac  htree.BucketMAC
	// opens[lo:hi] and frontier[flo:fhi] of the rank's fetch arena are the
	// group's (walkTop); the opens below lo are resident.
	lo, hi, flo, fhi int32
	nc, nb           int // the lengths of its list: cells and bodies
}

// begin starts a walk with an empty list on scratch sc from the group's
// frontier, in walkTop's pop order, the cells it accepted as accepted
// (htree.Far) and the rest by route. On one rank that is the local root.
func (w *bucketWalker) begin(sc *htree.BucketScratch) {
	sc.Reset()
	for f := w.fhi - 1; f >= w.flo; f-- {
		x := w.dt.frontier[f]
		if x >= 0 {
			x = w.dt.route[x]
		}
		sc.Push(x)
	}
}

// Layout hands the walk the top with this rank's routes through it.
func (w *bucketWalker) Layout() ([]htree.Cell, []int32, int32) {
	return w.dt.top.cells, w.dt.route, w.dt.base()
}

// Remote resolves index i to its reply, the owner's branch in the owner's
// tree: a hit of the rank's cache of the others' trees.
func (w *bucketWalker) Remote(i int32) (*htree.Tree, int32) {
	rep := w.dt.replies[i-w.dt.base()]
	return rep.t, rep.i
}

// Open refuses a branch that is not resident: a group is gathered only once
// every branch it opens has arrived.
func (w *bucketWalker) Open(_ int32, c *htree.Cell) {
	panic("core: group walk reached non-resident cell " + c.Key.String())
}

// resident reports whether every branch the group's walk opens has arrived,
// moving lo past those that have.
func (w *bucketWalker) resident() bool {
	for w.lo < w.hi && w.dt.route[w.dt.opens[w.lo]] >= w.dt.base() {
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
// All ranks must call it collectively (it quiesces the ABM traffic). It runs
// as a polling region (mp.Rank.OneSlot): the ranks enter it together, in
// rank order, onto one execution slot, so what each poll finds — and the
// virtual schedule — is the same at any width of the scheduler's pool.
// Transient state from any previous evaluation on this tree is dropped
// first, so repeated evaluations do not accumulate unbounded state.
func (dt *DTree) ComputeForces(bodies []Body) (acc []vec.V3, pot []float64, st TraversalStats) {
	dt.r.OneSlot(func() { acc, pot, st = dt.computeForces(bodies) })
	return acc, pot, st
}

// computeForces is ComputeForces inside its region.
func (dt *DTree) computeForces(bodies []Body) ([]vec.V3, []float64, TraversalStats) {
	dt.resetCaches()
	defer dt.r.Span("phase", "walk")()
	acc := make([]vec.V3, len(bodies))
	pot := make([]float64, len(bodies))
	var st TraversalStats
	st.PerBody = make([]float64, len(bodies))
	if dt.local == nil || len(bodies) == 0 {
		// No local work: serve everyone else's fetches until quiescence.
		dt.abm.Quiesce()
		return acc, pot, st
	}

	groups := dt.local.Groups()
	walkers := make([]bucketWalker, len(groups))
	for i, c := range groups {
		walkers[i] = bucketWalker{dt: dt, cell: c, mac: htree.NewGroupMAC(c, dt.opt.Theta)}
	}

	charge := dt.chargeFunc(&st)
	// The rank's profiler labels in the walk, which evalRun's loop overlays.
	labels := pprof.WithLabels(context.Background(), pprof.Labels("rank", strconv.Itoa(dt.r.ID()), "phase", "walk"))

	// The groups go in the order of a stack of them, the last first.
	for i := len(walkers) - 1; i >= 0; i-- {
		dt.walkTop(&walkers[i], &st)
	}
	dt.abm.FlushAll()
	for i := len(walkers) - 1; i >= 0; {
		for !walkers[i].resident() {
			if dt.abm.Poll() == 0 {
				// Hand the execution slot to the rank we are waiting on
				// (required: the region is one slot wide).
				dt.r.Yield()
			}
		}
		j := i
		for j > 0 && walkers[j-1].resident() {
			j--
		}
		dt.evalRun(labels, walkers[j:i+1], acc, pot)
		for ; i >= j; i-- {
			dt.finishBucket(&walkers[i], &st, charge)
			dt.abm.Poll()
		}
	}

	// Every reply this rank waits for is in; it serves the others' requests
	// until every rank's are.
	dt.abm.Quiesce()
	return acc, pot, st
}

// evalRun gathers and evaluates a run of resident groups on one host loop,
// Workers wide and one more for the rank, which would otherwise only wait for
// it; each of the loop's goroutines has a list scratch of its own in the
// rank's arena. It records each group's list lengths for finishBucket.
func (dt *DTree) evalRun(labels context.Context, run []bucketWalker, acc []vec.V3, pot []float64) {
	width := par.Width(dt.opt.Workers, len(run)) + 1
	for len(dt.lists) < width {
		dt.lists = append(dt.lists, new(htree.BucketScratch))
	}
	pprof.Do(labels, pprof.Labels("phase", "eval"), func(context.Context) {
		par.For(len(run), width, func(k, i int) {
			w, sc := &run[i], dt.lists[k]
			w.begin(sc)
			dt.local.Gather(&w.mac, sc, w)
			w.nc, w.nb = len(sc.List.Cells), sc.List.Bodies()
			dt.local.EvalBucket(w.cell, dt.opt.Eps, sc, acc, pot)
		})
	})
}

// walkTop walks the replicated top alone for w's group — testing fills and
// branches as Gather does, descending into no branch — and records in the
// rank's frontier every top cell where it stops, and in its opens every other
// rank's branch it does not accept, asking for each one no group has asked
// for yet. From the root, Gather would decide the fills alike and reach the
// frontier in this order, each cell with only later ones and unopened fills
// below it on the stack: the gather may start from the frontier (begin).
func (dt *DTree) walkTop(w *bucketWalker, st *TraversalStats) {
	cells, owner, me := dt.top.cells, dt.top.owner, int32(dt.r.ID())
	w.lo, w.flo = int32(len(dt.opens)), int32(len(dt.frontier))
	stack := append(dt.stack[:0], 0)
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := &cells[j]
		switch o := owner[j]; {
		case o == me: // the local tree's
		case o < 0 && w.mac.OwnsKey(c.Key): // above the group's own bodies
			stack = c.Daughters(j, stack)
			continue
		case w.mac.Accept(c):
			dt.frontier = append(dt.frontier, ^(dt.nLocal + j))
			continue
		case o < 0:
			stack = c.Daughters(j, stack)
			continue
		default:
			dt.opens = append(dt.opens, j)
			dt.requestBranch(j, st)
		}
		dt.frontier = append(dt.frontier, j)
	}
	dt.stack = stack
	w.hi, w.fhi = int32(len(dt.opens)), int32(len(dt.frontier))
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
