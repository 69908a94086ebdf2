package sph

// Neighbour search on the gravity tree (Section 4.4: SPH "onto the tree
// structure described above for N-body studies"). One tree over the current
// positions serves the density passes, the FLD gradient pass, the pair pass,
// self-gravity and Diag. A search is made once per leaf bucket, not once per
// particle: htree.GatherList in its ball mode lists the body ranges of every
// leaf within the largest kernel support of the bucket's particles, and each
// particle of the bucket then tests those contiguous ranges itself.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"spacesim/internal/htree"
	"spacesim/internal/key"
)

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
// it. With no particles there is no tree.
func (s *Sim) ensureTree() {
	if s.treeCurrent() {
		return
	}
	p := s.P
	s.tree = nil
	if p.N() == 0 {
		return
	}
	t, err := htree.Build(p.Pos, p.Mass, htree.Options{
		MaxLeaf: 8, Workers: s.Cfg.Workers, Arena: &s.arena, Obs: s.o,
	})
	if err != nil {
		panic("sph: tree: " + err.Error())
	}
	s.tree = t
}

// eachBucket calls visit once per leaf bucket of s.tree with the body ranges
// a ball search returns for it: every body within the largest kernel support
// 2h of the bucket's particles, from any of them (the bucket's bounding
// sphere widened by that support). visit reports how many bodies it
// distance-tested and how many lay inside a support; the totals go to the
// sph.search counters once per pass.
//
// With parallel set the buckets fan out over Cfg.Workers goroutines, so visit
// must write nothing but the bucket's own particles; otherwise buckets are
// visited in tree order on the caller's goroutine.
func (s *Sim) eachBucket(parallel bool, visit func(b *htree.Cell, cand []htree.BodyRange) (tested, found int)) {
	t, h := s.tree, s.P.H
	leaves := t.Leaves()
	var next, tested, found atomic.Int64
	work := func() {
		sc := htree.BucketScratch{Ball: true}
		var nt, nf int
		for {
			i := int(next.Add(1)) - 1
			if i >= len(leaves) {
				break
			}
			b := leaves[i]
			maxH := 0.0
			for k := b.Lo; k < b.Hi; k++ {
				if hk := h[t.Bodies[k].ID]; hk > maxH {
					maxH = hk
				}
			}
			center, radius := b.BoundingSphere()
			mac := htree.NewBucketMAC(center, radius+SupportRadius(maxH), 1)
			sc.Reset()
			t.GatherList(key.Root, &mac, &sc)
			dt, df := visit(b, sc.Ranges)
			nt, nf = nt+dt, nf+df
		}
		tested.Add(int64(nt))
		found.Add(int64(nf))
	}
	workers := 1
	if parallel {
		if workers = s.Cfg.Workers; workers < 1 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > len(leaves) {
			workers = len(leaves)
		}
	}
	if workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	s.cCand.Add(tested.Load())
	s.cNbr.Add(found.Load())
}
