package core

// The bucket-grouped force engine (2HOT's grouped walk, Warren SC'13): one
// walker per local leaf bucket traverses the distributed tree once, testing
// the MAC against the bucket's bounding sphere — distance measured from the
// leaf center of mass, opening radius widened by the leaf Bmax — so every
// accepted cell satisfies the per-body criterion for all sinks in the
// bucket and the per-body error bound is preserved. The walk accumulates an
// interaction list (accepted cell multipoles + direct-interaction bodies in
// SoA layout); completed lists are evaluated for the whole bucket by the
// batched kernels on a pool of host workers.
//
// The bucket walk itself is htree's: a locally owned subtree is gathered by
// htree.Tree.GatherList and a finished list applied by Tree.EvalBucket, the
// same two functions the serial Tree.AccelAllGrouped runs. This file adds
// only what is distributed — the suspended stack of global keys, MAC tests
// on replicated cells, fetch continuations, the canonical list sort and
// deterministic charging.
//
// Determinism rule: the traversal, interaction counting and virtual-time
// charging all run on the rank's own goroutine in bucket order; workers
// only evaluate finished lists into disjoint output ranges, and on
// multi-rank runs each list is sorted into a canonical order first. The
// result is therefore bit-identical for any Workers count, and independent
// of the order in which fetch replies happened to arrive.

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"spacesim/internal/htree"
	"spacesim/internal/key"
	"spacesim/internal/obs"
	"spacesim/internal/vec"
)

// bucketScratch is one bucket's reusable state: the interaction list and
// evaluation buffers of the shared walker (htree.BucketScratch) plus the
// stack of distributed-tree keys still to visit, which is what survives a
// suspension. Instances recycle through a pool across buckets, steps and
// tree rebuilds, so steady-state force evaluation allocates almost nothing.
type bucketScratch struct {
	htree.BucketScratch
	stack []key.K
}

var scratchPool = sync.Pool{New: func() any { return new(bucketScratch) }}

// bucketWalker is one leaf bucket's suspended traversal state.
type bucketWalker struct {
	*bucketScratch
	cell    *htree.Cell
	center  vec.V3
	radius  float64
	blocked int
	queued  bool
	done    bool
}

// evalPool runs bucket evaluations on a fixed set of host goroutines. The
// job channel is bounded, so a traversal that outruns the workers blocks on
// submit instead of queueing unbounded interaction lists.
type evalPool struct {
	jobs chan func()
	wg   sync.WaitGroup
}

// newEvalPool starts the workers. Each measures its busy time in *host*
// nanoseconds (the pool is real host parallelism, not part of the virtual
// machine model) and, when tracing, gets its own host-time trace row.
func (dt *DTree) newEvalPool(workers int) *evalPool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &evalPool{jobs: make(chan func(), 4*workers)}
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
			for f := range p.jobs {
				t0 := time.Now()
				var h0 float64
				if tr != nil {
					h0 = dt.o.Tracer.HostNow()
				}
				f()
				if tr != nil {
					tr.Span("eval", "bucket", h0, dt.o.Tracer.HostNow())
				}
				dt.cPoolBusyNS.Add(time.Since(t0).Nanoseconds())
				dt.cPoolJobs.Inc()
				p.wg.Done()
			}
		}()
	}
	return p
}

func (p *evalPool) submit(f func()) {
	p.wg.Add(1)
	p.jobs <- f
}

// wait blocks until every submitted job has finished.
func (p *evalPool) wait() { p.wg.Wait() }

// close releases the worker goroutines.
func (p *evalPool) close() { close(p.jobs) }

// ComputeForces evaluates the gravitational field at every local body using
// the distributed tree, returning accelerations, potentials and work stats.
// All ranks must call it collectively (it quiesces the ABM traffic).
// Transient caches from any previous evaluation on this tree are dropped
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

	leaves := dt.local.Leaves()
	st.Buckets = int64(len(leaves))
	walkers := make([]bucketWalker, len(leaves))
	runnable := make([]*bucketWalker, 0, len(leaves))
	for i, c := range leaves {
		w := &walkers[i]
		w.bucketScratch = scratchPool.Get().(*bucketScratch)
		w.cell = c
		w.center, w.radius = c.BoundingSphere()
		w.stack = append(w.stack[:0], key.Root)
		w.Reset()
		w.queued = true
		runnable = append(runnable, w)
	}
	remaining := len(walkers)

	charge := dt.chargeFunc(&st)
	hostStart := time.Now()
	pool := dt.newEvalPool(dt.opt.Workers)
	defer pool.close()
	// Multi-rank lists mix locally walked and fetched data, so their order
	// depends on reply timing; sorting restores a canonical order (see the
	// determinism rule above). Single-rank lists are already deterministic.
	canonicalize := dt.r.Size() > 1

	fetch := func(w *bucketWalker, k key.K, owner int) {
		w.blocked++
		dt.requestCell(k, owner, &st, func(reply fetchReply) {
			w.blocked--
			if reply.Bodies != nil {
				w.Srcs.PushSources(reply.Bodies)
			} else {
				for _, c := range reply.Children {
					w.stack = append(w.stack, c.Key)
				}
			}
			if !w.done && !w.queued {
				w.queued = true
				runnable = append(runnable, w)
			}
		})
	}

	for remaining > 0 {
		if len(runnable) == 0 {
			dt.abm.FlushAll()
			if dt.abm.Poll() == 0 {
				// Hand the execution slot to the rank we are waiting on
				// (required under the event engine's bounded worker pool).
				dt.r.Yield()
			}
			continue
		}
		w := runnable[len(runnable)-1]
		runnable = runnable[:len(runnable)-1]
		w.queued = false
		if w.done {
			continue
		}
		dt.runBucket(w, fetch)
		if len(w.stack) == 0 && w.blocked == 0 {
			w.done = true
			remaining--
			dt.finishBucket(w, &st, charge, pool, canonicalize, acc, pot)
		}
		dt.abm.Poll()
	}
	pool.wait()
	dt.cPoolWallNS.Add(time.Since(hostStart).Nanoseconds())
	charge()
	dt.abm.Quiesce()
	return acc, pot, st
}

// runBucket drains the bucket walker's stack as far as possible without
// waiting, accumulating accepted cells and direct bodies on its list.
func (dt *DTree) runBucket(w *bucketWalker, fetch func(*bucketWalker, key.K, int)) {
	theta := dt.opt.Theta
	for len(w.stack) > 0 {
		k := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		info, ok := dt.remote[k]
		if !ok {
			panic("core: traversal reached unknown cell " + k.String())
		}
		if info.Owner == dt.r.ID() {
			// A fully local subtree: the shared serial walker gathers it.
			dt.local.GatherList(k, w.center, w.radius, theta, &w.BucketScratch)
			continue
		}
		d := info.Mp.COM.Dist(w.center) - w.radius
		if htree.AcceptMAC(d, info.Bmax, theta) {
			w.Cells.Push(&info.Mp)
			continue
		}
		if info.Owner == -1 {
			// Fill cell: children are replicated, push them directly.
			for oct := 0; oct < 8; oct++ {
				if info.ChildMask&(1<<uint(oct)) != 0 {
					w.stack = append(w.stack, k.Child(oct))
				}
			}
			continue
		}
		if info.Leaf {
			if src, ok := dt.bodiesCacheGet(k); ok {
				w.Srcs.PushSources(src)
				continue
			}
			fetch(w, k, info.Owner)
			continue
		}
		if dt.childrenCached(k, info) {
			for oct := 0; oct < 8; oct++ {
				if info.ChildMask&(1<<uint(oct)) != 0 {
					w.stack = append(w.stack, k.Child(oct))
				}
			}
			continue
		}
		fetch(w, k, info.Owner)
	}
}

// finishBucket accounts the bucket's work deterministically (counts derive
// from list lengths alone) and hands the numeric evaluation to the pool.
func (dt *DTree) finishBucket(w *bucketWalker, st *TraversalStats, charge func(), pool *evalPool, canonicalize bool, acc []vec.V3, pot []float64) {
	ns := w.cell.Hi - w.cell.Lo
	nc := w.Cells.Len()
	nb := w.Srcs.Len()
	dt.cBuckets.Inc()
	dt.cListCells.Add(int64(nc))
	dt.cListBodies.Add(int64(nb))
	dt.gListCellsMax.Max(float64(nc))
	dt.gListBodiesMax.Max(float64(nb))
	dt.hListCells.Observe(float64(nc))
	dt.hListBodies.Observe(float64(nb))
	st.CellInteractions += int64(ns * nc)
	// Every sink meets every listed body except itself (the bucket's own
	// bodies are always on the list, since its own leaf can never pass the
	// bucket MAC).
	st.BodyInteractions += int64(ns*nb - ns)
	work := float64(nc + nb - 1)
	for i := w.cell.Lo; i < w.cell.Hi; i++ {
		st.PerBody[dt.local.Bodies[i].ID] = work
	}
	charge()
	pool.submit(func() {
		// On a pool worker: touches only the walker's own scratch, the
		// read-only body array and the bucket's entries of acc and pot.
		sc := w.bucketScratch
		if canonicalize {
			sc.Cells.Sort()
			sc.Srcs.Sort()
		}
		dt.local.EvalBucket(w.cell, dt.opt.Eps, dt.opt.UseKarp, dt.opt.Precision, &sc.BucketScratch, acc, pot)
		w.bucketScratch = nil
		scratchPool.Put(sc)
	})
}
