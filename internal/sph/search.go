package sph

// Neighbour search on the gravity tree (Section 4.4: SPH "onto the tree
// structure described above for N-body studies"). One tree over the current
// positions serves the density passes, the FLD gather, the pair pass,
// self-gravity and Diag. A search is made per leaf bucket, not per particle:
// htree.GatherList in its ball mode lists the body ranges of every leaf within
// the largest kernel support of the bucket's particles, and each particle of
// the bucket then tests those contiguous ranges itself. A leaf is searched at
// most once per tree for any support its last search covers: a pass whose
// support is no larger reuses the ranges, since a larger ball lists a
// superset of the leaves in the same depth-first order and every particle
// sums the same neighbours in the same order. The FLD gather records each
// particle's neighbours at the final h, and the pair pass reads them.

import (
	"context"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"

	"spacesim/internal/htree"
	"spacesim/internal/key"
)

// leafSearch is one leaf's last ball search on the current tree: the body
// ranges it listed and the support radius it was made for (negative before
// the first search).
type leafSearch struct {
	support float64
	ranges  []htree.BodyRange
}

// worker is the reusable state of one pass goroutine: its walk scratch and
// the buffers the ball searches, the FLD gather and the pair pass append to.
// What a leaf or a particle keeps (leafSearch.ranges, Sim.nbr, Sim.pairs) is
// a run of these buffers, resliced: append writes only past a buffer's
// length or into a new array, so the run stays valid while the buffer grows,
// until the next reset (ensureTree for the ranges, computeForces for the
// rest). sc.Ranges therefore holds every search made on the current tree.
type worker struct {
	sc    htree.BucketScratch
	nbr   []int32
	pairs []pairRec
}

// treeCurrent reports whether s.tree is a tree over exactly the current
// P.Pos and P.Mass: one O(N) pass over its bodies.
func (s *Sim) treeCurrent() bool {
	t, p := s.tree, s.P
	if t == nil || len(t.Bodies) != p.N() {
		return false
	}
	for k := range t.Bodies {
		if b := &t.Bodies[k]; b.Pos != p.Pos[b.ID] || b.Mass != p.Mass[b.ID] {
			return false
		}
	}
	return true
}

// ensureTree makes s.tree the tree over the current P.Pos and P.Mass. Sim.P
// is exported, so a tree kept from the last call is checked against the
// particles before it is used again, not trusted; any difference rebuilds
// it, and a rebuild forgets every leaf's search. With no particles there is
// no tree.
func (s *Sim) ensureTree() {
	if s.treeCurrent() {
		return
	}
	p := s.P
	s.tree, s.leaves = nil, nil
	if p.N() == 0 {
		return
	}
	t, err := htree.Build(p.Pos, p.Mass, htree.Options{
		MaxLeaf: 8, Workers: s.Cfg.Workers, Arena: &s.arena, Obs: s.o,
	})
	if err != nil {
		panic("sph: tree: " + err.Error())
	}
	s.tree, s.leaves = t, t.Leaves()
	s.searched = slices.Grow(s.searched[:0], len(s.leaves))[:len(s.leaves)]
	for i := range s.searched {
		s.searched[i].support = -1
	}
	for w := range s.work {
		s.work[w].sc.Ranges = s.work[w].sc.Ranges[:0]
	}
}

// eachBucket is eachLeaf for a visit that keeps nothing per goroutine.
func (s *Sim) eachBucket(parallel bool, visit func(b *htree.Cell, cand []htree.BodyRange) (tested, found int)) {
	s.eachLeaf(parallel, func(_ *worker, b *htree.Cell, cand []htree.BodyRange) (int, int) {
		return visit(b, cand)
	})
}

// eachLeaf calls visit once per leaf bucket of s.tree with the body ranges
// of a ball search around it: every body within the largest kernel support
// 2h of the bucket's particles, from any of them (the bucket's bounding
// sphere widened by that support). The leaf's last search on this tree is
// reused when it was made for at least that support; otherwise the leaf is
// searched again. visit reports how many bodies it distance-tested and how
// many lay inside a support; the totals go to the sph.search counters once
// per pass.
//
// With parallel set the buckets fan out over Cfg.Workers goroutines, so visit
// must write nothing but the bucket's own particles and the worker it is
// handed; otherwise buckets are visited in tree order on the caller's
// goroutine.
func (s *Sim) eachLeaf(parallel bool, visit func(w *worker, b *htree.Cell, cand []htree.BodyRange) (tested, found int)) {
	t, h := s.tree, s.P.H
	s.fanOut(parallel, len(s.leaves), func(w *worker, li int) (int, int) {
		b, c := s.leaves[li], &s.searched[li]
		maxH := 0.0
		for k := b.Lo; k < b.Hi; k++ {
			if hk := h[t.Bodies[k].ID]; hk > maxH {
				maxH = hk
			}
		}
		if support := SupportRadius(maxH); !(support <= c.support) {
			lo := len(w.sc.Ranges)
			center, radius := b.BoundingSphere()
			mac := htree.NewBucketMAC(center, radius+support, 1)
			t.GatherList(key.Root, &mac, &w.sc)
			c.support, c.ranges = support, w.sc.Ranges[lo:]
			s.cWalks.Inc()
		}
		return visit(w, b, c.ranges)
	})
}

// fanOut calls do once for every i in [0, n), the indices claimed in
// ascending order by Cfg.Workers goroutines (GOMAXPROCS when < 1, at most n)
// with parallel set, or else by the caller's alone; each goroutine has its
// own worker. The tested and found counts do reports go to the sph.search
// counters.
func (s *Sim) fanOut(parallel bool, n int, do func(w *worker, i int) (tested, found int)) {
	workers := 1
	if parallel {
		if workers = s.Cfg.Workers; workers < 1 {
			workers = runtime.GOMAXPROCS(0)
		}
		workers = max(min(workers, n), 1)
	}
	for len(s.work) < workers {
		s.work = append(s.work, worker{sc: htree.BucketScratch{Ball: true}})
	}
	var next, tested, found atomic.Int64
	work := func(w *worker) {
		var nt, nf int
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				break
			}
			dt, df := do(w, i)
			nt, nf = nt+dt, nf+df
		}
		tested.Add(int64(nt))
		found.Add(int64(nf))
	}
	if workers == 1 {
		work(&s.work[0])
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := range s.work[:workers] {
			go func() {
				defer wg.Done()
				work(&s.work[w])
			}()
		}
		wg.Wait()
	}
	s.cCand.Add(tested.Load())
	s.cNbr.Add(found.Load())
}

// phase runs f under the pprof label phase=name, which the goroutines f
// starts inherit, so a CPU profile splits the step by pass (make
// profile-sph).
func phase(name string, f func()) {
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) { f() })
}
