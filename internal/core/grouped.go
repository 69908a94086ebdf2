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
// and answering a miss. This file adds that hook, fetch continuations, the
// second pass and deterministic charging.
//
// Two passes. Pass 1 is the latency-hiding traversal of Section 4.2 — "we
// effectively do explicit context switching using a software queue to keep
// track of which computations have been put aside waiting for messages to
// arrive": a walker that needs a remote cell that is not resident asks for
// it and is put aside. One that never misses has its list in depth-first
// tree order and is evaluated at once; after the run in which it first
// misses a walker gives its list up and from then on only counts what it
// accepts, in the loop's count-only mode — all the accounting and the
// virtual-time charge need — so a rank holds the lists in evaluation, not
// one per waiting bucket. Pass 2 starts when every walker has finished:
// whatever a suspended walk opened is resident by then, so its bucket is
// walked again from the root without waiting, and evaluated. Pass 2 is the
// pool's: the rank hands it the suspended walkers and goes on into Quiesce,
// so on a host thread shared by many ranks (the event engine) other ranks'
// pass 1 runs beside this rank's pass 2.
//
// Determinism rule: the pass-1 traversal, interaction counting and
// virtual-time charging all run on the rank's own goroutine in bucket order;
// evaluation — on a worker or on the rank — only writes a bucket's disjoint
// output range from its list, and either pass yields the list in tree order
// — a function of the tree and the bucket, not of when fetch replies
// arrived. The result is therefore bit-identical for any Workers count, and
// virtual time cannot tell who evaluated what. What the pool reads while the
// rank is in Quiesce cannot change under it: the replicated top is never
// written, the rank's slab and overlay only by fetch replies, and a rank
// whose walkers have all finished has none outstanding (ComputeForces panics
// otherwise); serving other ranks' fetches reads the local tree, which is
// immutable once built.

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spacesim/internal/gravity"
	"spacesim/internal/htree"
	"spacesim/internal/key"
	"spacesim/internal/obs"
	"spacesim/internal/vec"
)

// Scratch recycles through two pools across buckets, steps and tree
// rebuilds, so steady-state force evaluation allocates almost nothing: one
// for the lists being gathered or evaluated, one for the tallies of
// suspended walks, which never hold a list.
var (
	listPool  = sync.Pool{New: func() any { return new(htree.BucketScratch) }}
	countPool = sync.Pool{New: func() any { return &htree.BucketScratch{CountOnly: true} }}
)

// bucketWalker is one sink group's traversal state, and the htree.Far of its
// walks: it lays out the indices past the local tree's and answers a far
// leaf, or a miss the way the pass says.
type bucketWalker struct {
	dt   *DTree
	cell *htree.Cell
	mac  htree.BucketMAC
	// sc is the walk's scratch: a list scratch until the walk misses, a
	// count-only one from then on in pass 1, a list scratch again in pass 2.
	sc *htree.BucketScratch
	// miss is pass 1's answer to a cell that is not resident; nil in pass 2,
	// where every cell is.
	miss func(w *bucketWalker, i int32, k key.K)
	// nc cells and nb bodies in nseg segments: the list's lengths.
	nc, nb, nseg int
	blocked      int
	queued       bool
	suspended    bool
}

// begin starts a walk at the root with an empty list on a pooled scratch,
// with room for the lengths the walker knows (pass 2 knows them all).
func (w *bucketWalker) begin() {
	w.sc = listPool.Get().(*htree.BucketScratch)
	w.sc.Reset()
	l := &w.sc.List
	l.Cells, l.Segs = slices.Grow(l.Cells, w.nc), slices.Grow(l.Segs, w.nseg)
	w.sc.Push(w.dt.route[0]) // the root: on one rank, the local tree's
}

// lengths takes the walker's counts from its list, or its tally.
func (w *bucketWalker) lengths() {
	if sc := w.sc; sc.CountOnly {
		w.nc, w.nb, w.nseg = sc.NCells, sc.NSrcs, sc.NSegs
	} else {
		w.nc, w.nb, w.nseg = len(sc.List.Cells), sc.List.Bodies(), len(sc.List.Segs)
	}
}

// suspend gives up the list after the run in which the walk first missed,
// going on from its lengths in count-only mode.
func (w *bucketWalker) suspend() {
	w.lengths()
	listPool.Put(w.sc)
	w.sc, w.suspended = countPool.Get().(*htree.BucketScratch), true
	w.sc.NCells, w.sc.NSrcs, w.sc.NSegs = w.nc, w.nb, w.nseg
}

// Layout hands the walk the top with this rank's routes through it, and the
// fetched slab.
func (w *bucketWalker) Layout() ([]htree.Cell, []int32, int32, []htree.Cell) {
	dt := w.dt
	return dt.top.cells, dt.route, dt.nLocal + int32(len(dt.top.cells)), dt.fetched
}

// Open returns the bodies of remote leaf i if a reply has brought them, and
// otherwise passes the miss to the pass.
func (w *bucketWalker) Open(i int32, c *htree.Cell) []gravity.Source {
	dt := w.dt
	if c.Hi > c.Lo {
		dt.cCacheHit.Inc()
		return dt.bodies[c.Lo]
	}
	if c.Leaf {
		dt.cCacheMiss.Inc()
	}
	if w.miss == nil {
		panic("core: second pass reached non-resident cell " + c.Key.String())
	}
	w.miss(w, i, c.Key)
	return nil
}

// evalPool runs bucket evaluations on a fixed set of host goroutines. The
// job channel is bounded, so a traversal that outruns the workers does not
// queue unbounded interaction lists: it evaluates the bucket itself (run).
type evalPool struct {
	workers int
	jobs    chan poolJob
	wg      sync.WaitGroup
}

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
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &evalPool{workers: workers, jobs: make(chan poolJob, 4*workers)}
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

// submit queues f, waiting for room.
func (p *evalPool) submit(name string, f func()) {
	p.wg.Add(1)
	p.jobs <- poolJob{name, f}
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
		f()
		p.wg.Done()
		return false
	}
}

// wait blocks until every submitted job has finished.
func (p *evalPool) wait() { p.wg.Wait() }

// close releases the worker goroutines.
func (p *evalPool) close() { close(p.jobs) }

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
// All ranks must call it collectively (it quiesces the ABM traffic).
// Transient state from any previous evaluation on this tree is dropped
// first, so repeated evaluations do not accumulate unbounded state.
func (dt *DTree) ComputeForces(bodies []Body) ([]vec.V3, []float64, TraversalStats) {
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
	runnable := make([]*bucketWalker, 0, len(groups))
	for i, c := range groups {
		walkers[i] = bucketWalker{dt: dt, cell: c, mac: htree.NewGroupMAC(c, dt.opt.Theta), queued: true}
		runnable = append(runnable, &walkers[i])
	}
	remaining := len(walkers)

	charge := dt.chargeFunc(&st)
	hostStart := time.Now()
	pool := dt.newEvalPool(dt.opt.Workers)
	defer pool.close()

	// Pass 1's answer to a miss: ask for the cell and put the walker aside;
	// resume takes it up again once the reply has made the cell resident.
	resume := func(w *bucketWalker, c *htree.Cell, at int32) {
		w.blocked--
		if c.Leaf {
			w.sc.NSrcs += c.N
			w.sc.NSegs++
		} else {
			var kids [8]int32
			w.sc.Push(c.Daughters(at, kids[:0])...)
		}
		if !w.queued {
			w.queued = true
			runnable = append(runnable, w)
		}
	}
	fetch := func(w *bucketWalker, i int32, k key.K) {
		w.blocked++
		dt.requestCell(i, k, &st, w, resume)
	}

	for remaining > 0 {
		if len(runnable) == 0 {
			dt.abm.FlushAll()
			if dt.abm.Poll() == 0 {
				// Hand the execution slot to the rank we are waiting on
				// (required: the scheduler's pool may be one slot wide).
				dt.r.Yield()
			}
			continue
		}
		w := runnable[len(runnable)-1]
		runnable = runnable[:len(runnable)-1]
		w.queued = false
		if w.sc == nil {
			w.begin()
			w.miss = fetch
		}
		dt.local.Gather(&w.mac, w.sc, w)
		if w.blocked > 0 && !w.suspended {
			w.suspend()
		}
		if w.blocked == 0 {
			remaining--
			dt.finishBucket(w, &st, charge)
			if !w.suspended && !pool.run("bucket", func() { dt.evalBucket(w, acc, pot) }) {
				dt.cPoolInline.Inc()
			}
		}
		dt.abm.Poll()
	}

	// Pass 2: the pool's workers pull the suspended walkers off a shared index
	// while this goroutine goes on into Quiesce. The slab they read is final
	// only if no reply is still to come. Every bucket was charged at
	// finishBucket, so virtual time does not see where or when pass 2 runs.
	if len(dt.fetching) != 0 || dt.abm.Outstanding() != 0 {
		panic(fmt.Sprintf("core: rank %d starts pass 2 with %d cells being fetched, %d requests outstanding",
			dt.r.ID(), len(dt.fetching), dt.abm.Outstanding()))
	}
	var next atomic.Int64
	second := func() {
		for i := next.Add(1) - 1; i < int64(len(walkers)); i = next.Add(1) - 1 {
			if w := &walkers[i]; w.suspended {
				nc, nb, nseg := w.nc, w.nb, w.nseg
				dt.regather(w)
				if w.lengths(); nc != w.nc || nb != w.nb || nseg != w.nseg {
					panic(fmt.Sprintf("core: bucket %v: pass 2 gathered %d+%d/%d, pass 1 counted %d+%d/%d",
						w.cell.Key, w.nc, w.nb, w.nseg, nc, nb, nseg))
				}
				dt.evalBucket(w, acc, pot)
			}
		}
	}
	for range pool.workers {
		pool.submit("second-pass", second)
	}
	dt.abm.Quiesce()
	pool.wait() // acc and pot are complete only now
	dt.cPoolWallNS.Add(time.Since(hostStart).Nanoseconds())
	return acc, pot, st
}

// regather is pass 2's walk: it rebuilds a suspended walker's list from
// resident cells alone, in tree order.
func (dt *DTree) regather(w *bucketWalker) {
	w.miss = nil
	w.begin()
	dt.local.Gather(&w.mac, w.sc, w)
}

// finishBucket accounts the bucket's work deterministically: counts derive
// from list lengths alone, whether the list is at hand or was only counted.
// A suspended walker's tally goes back to its pool here.
func (dt *DTree) finishBucket(w *bucketWalker, st *TraversalStats, charge func()) {
	w.lengths()
	if w.suspended {
		dt.cWalkSecond.Inc()
		w.sc.Reset()
		countPool.Put(w.sc)
		w.sc = nil
	} else {
		dt.cWalkDirect.Inc()
	}
	ns := w.cell.Hi - w.cell.Lo
	nc, nb := w.nc, w.nb
	dt.cBuckets.Inc()
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
