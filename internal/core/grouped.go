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
// payload that is resident and unchanging for the evaluation); completed
// lists are evaluated for the whole bucket by the batched kernels on a pool
// of host workers — or, when the pool's queue is full, by the rank itself.
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
// resident — the rank polls and yields until then — charged and handed to the
// eval pool. A miss in a group walk is a bug, and panics.
//
// Determinism rule: the top walks, every gather, interaction counting and
// virtual-time charging run on the rank's own goroutine in group order;
// evaluation — on a worker or on the rank — only writes a group's disjoint
// output range from its list, and the list is in depth-first tree order — a
// function of the tree and the group, not of when fetch replies arrived. The
// result is therefore bit-identical for any Workers count, and virtual time
// cannot tell who evaluated what. What a list refers to cannot change under
// the pool: the replicated top is never written; a reply only appends to the
// rank's reply table and writes the overlay, which no list refers to; and
// serving other ranks' fetches reads the local tree, which is immutable once
// built, as are the other ranks' trees that the lists refer into.

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"spacesim/internal/gravity"
	"spacesim/internal/htree"
	"spacesim/internal/obs"
	"spacesim/internal/par"
	"spacesim/internal/vec"
)

// listPool recycles the scratch of the lists being gathered or evaluated
// across groups, steps and tree rebuilds, so steady-state force evaluation
// allocates almost nothing.
var listPool = sync.Pool{New: func() any { return new(htree.BucketScratch) }}

// bucketWalker is one sink group's walk, and the htree.Far of it: it lays
// out the indices past the local tree's and resolves a resident remote
// branch to the owner's tree.
type bucketWalker struct {
	dt   *DTree
	cell *htree.Cell
	mac  htree.BucketMAC
	sc   *htree.BucketScratch
	// opens[lo:hi] and frontier[flo:fhi] of the rank's fetch arena are the
	// group's (walkTop); the opens below lo are resident.
	lo, hi, flo, fhi int32
	hits             int64 // remote branches the gather entered
}

// begin starts a walk with an empty list on a pooled scratch from the
// group's frontier, in walkTop's pop order, the cells it accepted as accepted
// (htree.Far) and the rest by route. On one rank that is the local root.
func (w *bucketWalker) begin() {
	w.sc = listPool.Get().(*htree.BucketScratch)
	w.sc.Reset()
	for f := w.fhi - 1; f >= w.flo; f-- {
		x := w.dt.frontier[f]
		if x >= 0 {
			x = w.dt.route[x]
		}
		w.sc.Push(x)
	}
}

// Layout hands the walk the top with this rank's routes through it.
func (w *bucketWalker) Layout() ([]htree.Cell, []int32, int32) {
	return w.dt.top.cells, w.dt.route, w.dt.base()
}

// Remote resolves index i to its reply, the owner's branch in the owner's
// tree: a hit of the rank's cache of the others' trees.
func (w *bucketWalker) Remote(i int32) (*htree.Tree, int32) {
	w.hits++
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

// evalPool runs bucket evaluations on a fixed set of host goroutines. The
// job channel is bounded, so a traversal that outruns the workers does not
// queue unbounded interaction lists: it evaluates the bucket itself (run).
type evalPool struct {
	workers int
	jobs    chan poolJob
	wg      sync.WaitGroup
	// hold, when holdWorkers is set, keeps the workers from their first job
	// until release.
	hold chan struct{}
}

// holdWorkers is a test hook (export_test.go): while it is set, a new pool's
// workers take no job until the rank first finds the queue full, or waits
// for the pool, so the queue fills whatever the host's speeds.
var holdWorkers bool

// poolJob is one piece of work and the name of its span on the worker's
// host-time trace row.
type poolJob struct {
	name string
	f    func()
}

// newEvalPool starts the workers. Each measures its busy time in *host*
// nanoseconds (the pool is real host parallelism, not part of the virtual
// machine model) and, when tracing, gets its own host-time trace row.
func (dt *DTree) newEvalPool(workers int) *evalPool {
	p := &evalPool{workers: workers, jobs: make(chan poolJob, 4*workers)}
	if holdWorkers {
		p.hold = make(chan struct{})
	}
	hold := p.hold
	dt.r.Metrics().Gauge("core.pool.workers").Max(float64(workers))
	for i := 0; i < workers; i++ {
		var tr *obs.Track
		if dt.o != nil && dt.o.Tracer != nil {
			tr = dt.o.Tracer.Track(obs.PidWorkers, dt.r.ID()*256+i,
				fmt.Sprintf("rank %d worker %d", dt.r.ID(), i))
		}
		go func() {
			// Host CPU profiles attribute these workers to the force
			// evaluation of their owning rank (see mp/labels.go).
			pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels(
				"engine", "core-eval", "rank", strconv.Itoa(dt.r.ID()), "phase", "eval")))
			if hold != nil {
				<-hold
			}
			for job := range p.jobs {
				t0 := time.Now()
				var h0 float64
				if tr != nil {
					h0 = dt.o.Tracer.HostNow()
				}
				job.f()
				if tr != nil {
					tr.Span("eval", job.name, h0, dt.o.Tracer.HostNow())
				}
				dt.cPoolBusyNS.Add(time.Since(t0).Nanoseconds())
				p.wg.Done()
			}
		}()
	}
	return p
}

// run queues f if there is room and otherwise calls it here, reporting
// which: the caller was going to wait for a worker anyway, and what a
// bucket evaluation writes does not depend on who runs it.
func (p *evalPool) run(name string, f func()) (queued bool) {
	p.wg.Add(1)
	select {
	case p.jobs <- poolJob{name, f}:
		return true
	default:
		p.release()
		f()
		p.wg.Done()
		return false
	}
}

// release lets held workers (holdWorkers) take jobs.
func (p *evalPool) release() {
	if p.hold != nil {
		close(p.hold)
		p.hold = nil
	}
}

// wait blocks until every job handed to the pool has finished.
func (p *evalPool) wait() {
	p.release()
	p.wg.Wait()
}

// close releases the worker goroutines.
func (p *evalPool) close() {
	p.release()
	close(p.jobs)
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
	hostStart := time.Now()
	pool := dt.newEvalPool(par.Width(dt.opt.Workers, len(groups)))
	defer pool.close()

	// The groups go in the order of a stack of them, the last first.
	for i := len(walkers) - 1; i >= 0; i-- {
		dt.walkTop(&walkers[i], &st)
	}
	dt.abm.FlushAll()
	for i := len(walkers) - 1; i >= 0; i-- {
		w := &walkers[i]
		for !w.resident() {
			if dt.abm.Poll() == 0 {
				// Hand the execution slot to the rank we are waiting on
				// (required: the region is one slot wide).
				dt.r.Yield()
			}
		}
		w.begin()
		dt.local.Gather(&w.mac, w.sc, w)
		dt.finishBucket(w, &st, charge)
		if !pool.run("bucket", func() { dt.evalBucket(w, acc, pot) }) {
			dt.cPoolInline.Inc()
		}
		dt.abm.Poll()
	}

	// Every reply this rank waits for is in; it serves the others' requests
	// while the pool finishes its groups.
	dt.abm.Quiesce()
	pool.wait() // acc and pot are complete only now
	dt.cPoolWallNS.Add(time.Since(hostStart).Nanoseconds())
	return acc, pot, st
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
	l := &w.sc.List
	ns := w.cell.Hi - w.cell.Lo
	nc, nb := len(l.Cells), l.Bodies()
	dt.cBuckets.Inc()
	dt.cCacheHit.Add(w.hits)
	dt.cListCells.Add(int64(nc))
	dt.cListBodies.Add(int64(nb))
	dt.gListCellsMax.Max(float64(nc))
	dt.gListBodiesMax.Max(float64(nb))
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

// evalBucket applies the walker's list and recycles the scratch. On a pool
// worker or the rank: touches only the walker, its scratch, what the list
// refers to — read-only — and the bucket's entries of acc and pot.
func (dt *DTree) evalBucket(w *bucketWalker, acc []vec.V3, pot []float64) {
	dt.local.EvalBucket(w.cell, dt.opt.Eps, w.sc, acc, pot)
	dt.cPoolJobs.Inc()
	listPool.Put(w.sc)
	w.sc = nil
}
