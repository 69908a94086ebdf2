package sph

// Neighbour search on the gravity tree (Section 4.4: SPH "onto the tree
// structure described above for N-body studies"). One tree over the current
// positions serves the density iterations, the FLD gather, the pair pass,
// self-gravity and Diag. A search is made per leaf bucket, not per particle:
// htree.GatherList in its ball mode lists the body ranges of every leaf within
// the largest kernel support of the bucket's particles, and each particle of
// the bucket then tests those contiguous ranges itself. A leaf is searched at
// most once per tree for any support its last search covers: a larger ball
// lists a superset of the leaves in the same depth-first order, so every
// particle sums the same neighbours in the same order from either list.
//
// A particle tests each candidate once per density pass. The first
// iteration's scan keeps, in candidate order, every candidate within the
// search's support (its cover) with its squared distance; the second
// iteration and the neighbour record at the final h read that run instead of
// the candidates, whenever the cover holds the particle's new support. The
// record (Sim.nbr) serves the FLD gather and the pair pass for as long as the
// tree and the particle's h are those it was made for.

import (
	"context"
	"math"
	"runtime/pprof"
	"slices"

	"spacesim/internal/htree"
	"spacesim/internal/key"
	"spacesim/internal/par"
)

// leafSearch is one leaf's last ball search on the current tree: the body
// ranges it listed and the support radius it was made for (negative before
// the first search).
type leafSearch struct {
	support float64
	ranges  []htree.BodyRange
}

// kept is one candidate a scan kept: its tree position and its squared
// distance from the particle scanning.
type kept struct {
	k  int32
	r2 float64
}

// run is one particle's kept candidates, worker.kept[lo:hi]: every candidate
// of a leaf search within cover of the particle, in candidate order. It holds
// the particle's neighbours in that order for any support up to cover.
type run struct {
	lo, hi int
	cover  float64
}

// nbrList is one particle's neighbour record: the tree positions inside its
// support 2h (itself and bodies on top of it excluded), in candidate order,
// and how many bodies lay inside that support (those included). It is current
// while the tree generation and the particle's h are the ones it was made for.
type nbrList struct {
	gen   uint64
	h     float64
	found int
	src   []int32
}

// worker is the reusable state of one pass goroutine: its walk scratch, the
// kept runs of the leaf it is on, and the buffers the ball searches, the
// neighbour records and the pair pass append to. What a leaf or a particle
// keeps (leafSearch.ranges, nbrList.src, leafPairs.recs) is a run of these
// buffers, resliced: append writes only past a buffer's length or into a new
// array, so the run stays valid while the buffer grows, until the next reset
// (ensureTree for the ranges, UpdateDensity and ensureTree for the records,
// computeForces for the pairs). sc.Ranges therefore holds every search made
// on the current tree.
type worker struct {
	sc    htree.BucketScratch
	kept  []kept
	runs  []run
	nbr   []int32
	pairs []pairRec
	// tested and found sum what fanOut's calls on this worker report.
	tested, found int
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
// it, and a rebuild starts a new generation: it forgets every leaf's search
// and makes every neighbour record stale. With no particles there is no
// tree.
func (s *Sim) ensureTree() {
	if s.treeCurrent() {
		return
	}
	p := s.P
	s.tree, s.leaves = nil, nil
	s.gen++
	for w := range s.work {
		s.work[w].sc.Ranges, s.work[w].nbr = s.work[w].sc.Ranges[:0], s.work[w].nbr[:0]
	}
	if p.N() == 0 {
		return
	}
	t, err := htree.Build(p.Pos, p.Mass, htree.Options{
		MaxLeaf: 8, Arena: &s.arena, Obs: s.o,
	})
	if err != nil {
		panic("sph: tree: " + err.Error())
	}
	s.tree, s.leaves = t, t.Leaves()
	s.searched = slices.Grow(s.searched[:0], len(s.leaves))[:len(s.leaves)]
	for i := range s.searched {
		s.searched[i].support = -1
	}
}

// search returns a ball search around leaf li covering the largest kernel
// support 2h of its particles, from any of them (the bucket's bounding
// sphere widened by that support). The leaf's last search on this tree is
// reused when it was made for at least that support; otherwise the leaf is
// searched again, and the new search replaces the old.
func (s *Sim) search(w *worker, li int) *leafSearch {
	t, h := s.tree, s.P.H
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
	return c
}

// keep distance-tests the candidates cand of the particle at tree position k
// and appends to w.kept, in candidate order, those within cover of it. It
// returns their run and the number of candidates tested. The scan has no
// branch on the test: every candidate is written to the next free slot, which
// advances only past one inside the cover.
func (s *Sim) keep(w *worker, k int, cand []htree.BodyRange, cover float64) (r run, tested int) {
	src := s.tree.Sources()
	xi, r2max := src[k].Pos, cover*cover
	for _, rg := range cand {
		tested += rg.Hi - rg.Lo
	}
	r = run{lo: len(w.kept), cover: cover}
	out := slices.Grow(w.kept, tested)[:len(w.kept)+tested]
	n := r.lo
	for _, rg := range cand {
		for kj := rg.Lo; kj < rg.Hi; kj++ {
			sj := &src[kj]
			dx, dy, dz := xi[0]-sj.Pos[0], xi[1]-sj.Pos[1], xi[2]-sj.Pos[2]
			r2 := dx*dx + dy*dy + dz*dz
			out[n] = kept{int32(kj), r2}
			inside := 0
			if r2 <= r2max {
				inside = 1
			}
			n += inside
		}
	}
	w.kept, r.hi = out[:n], n
	return r, tested
}

// density sums the kernel over the entries of a kept run inside the support
// 2h, in run order, and reports how many it read and how many were inside.
func (s *Sim) density(run []kept, h float64) (rho float64, tested, found int) {
	src := s.tree.Sources()
	r2max := SupportRadius(h) * SupportRadius(h)
	for _, e := range run {
		if e.r2 <= r2max {
			found++
			rho += src[e.k].Mass * W(math.Sqrt(e.r2), h)
		}
	}
	return rho, len(run), found
}

// record appends to w.nbr the neighbour list of a kept run at smoothing
// length h and returns it as a record current on this tree.
func (s *Sim) record(w *worker, run []kept, h float64) nbrList {
	r2max := SupportRadius(h) * SupportRadius(h)
	lo, found := len(w.nbr), 0
	for _, e := range run {
		if e.r2 <= r2max {
			found++
			if e.r2 != 0 { // the particle itself, or one on top of it
				w.nbr = append(w.nbr, e.k)
			}
		}
	}
	return nbrList{gen: s.gen, h: h, found: found, src: w.nbr[lo:]}
}

// fanOut calls do once for every i in [0, n) through par.For on
// Cfg.Workers goroutines, each with its own worker. The tested and found
// counts do reports go to the sph.search counters.
func (s *Sim) fanOut(n int, do func(w *worker, i int) (tested, found int)) {
	width := par.Width(s.Cfg.Workers, n)
	for len(s.work) < width {
		s.work = append(s.work, worker{sc: htree.BucketScratch{Ball: true}})
	}
	ws := s.work[:width]
	for w := range ws {
		ws[w].tested, ws[w].found = 0, 0
	}
	par.For(n, s.Cfg.Workers, func(w, i int) {
		tested, found := do(&ws[w], i)
		ws[w].tested += tested
		ws[w].found += found
	})
	for w := range ws {
		s.cCand.Add(int64(ws[w].tested))
		s.cNbr.Add(int64(ws[w].found))
	}
}

// perParticle is the number of particles one claim of a per-particle loop
// covers.
const perParticle = 512

// forEach calls do(lo, hi) over consecutive spans of [0, n) that together
// cover it once, on Cfg.Workers goroutines (par.For): the per-particle
// loops, each of which writes only the particles of its own span.
func (s *Sim) forEach(n int, do func(lo, hi int)) {
	par.For((n+perParticle-1)/perParticle, s.Cfg.Workers, func(_, c int) {
		do(c*perParticle, min((c+1)*perParticle, n))
	})
}

// phase runs f under the pprof label phase=name, which the goroutines f
// starts inherit, so a CPU profile splits the step by pass (make
// profile-sph).
func phase(name string, f func()) {
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) { f() })
}
