package htree

import (
	"fmt"
	"math"
	"sort"

	"spacesim/internal/gravity"
	"spacesim/internal/key"
	"spacesim/internal/obs"
	"spacesim/internal/vec"
)

// Build runs three phases on the calling goroutine:
//
//  1. key:   Morton-key every body;
//  2. sort:  stable LSD radix sort of the keys (key.Sorter), then gather
//            bodies into tree order through the permutation;
//  3. build: one pre-order recursion over the sorted array appends every
//            cell to the slab, and the hash table indexes the slab after.
//
// Every cell is a pure function of its body range, so the tree is bit for
// bit the serial reference's (BuildReference), and a rank's tree is what
// the paper's processor builds from its own key-sorted bodies (§4.2).

// Arena holds every reusable buffer of a build: key and body storage,
// radix-sort scratch, the cell slab and hash index, and the sink groups.
// Passing the same Arena to successive builds makes steady-state per-step
// rebuilds allocation-free.
//
// An Arena is exclusive state: it must not be shared by concurrent builds,
// and building with it invalidates any Tree previously built from it (the
// new tree takes over the backing storage). The zero value is ready to use.
type Arena struct {
	sorter key.Sorter
	keys   []key.K
	bodies []Body
	src    []gravity.Source
	store  cellStore
	groups []*Cell

	pos  []vec.V3
	mass []float64
}

// PosMassScratch returns reusable position/mass buffers of length n for
// staging a Build call's inputs (callers that must copy out of an
// array-of-structs layout every step, like the distributed code, reuse
// these instead of allocating). The buffers are only read during Build, so
// they may be refilled for the next build of the same arena.
func (a *Arena) PosMassScratch(n int) ([]vec.V3, []float64) {
	if cap(a.pos) < n {
		a.pos = make([]vec.V3, n)
		a.mass = make([]float64, n)
	}
	a.pos, a.mass = a.pos[:n], a.mass[:n]
	return a.pos, a.mass
}

// Build constructs the tree for the given positions and masses.
func Build(pos []vec.V3, mass []float64, opt Options) (*Tree, error) {
	if len(pos) != len(mass) {
		return nil, fmt.Errorf("htree: %d positions but %d masses", len(pos), len(mass))
	}
	if len(pos) == 0 {
		return nil, fmt.Errorf("htree: empty body set")
	}
	if opt.MaxLeaf <= 0 {
		opt.MaxLeaf = 8
	}
	lo, size := opt.BoxLo, opt.BoxSize
	if size == 0 {
		lo, size = BoundingCube(pos)
	}
	n := len(pos)
	ar := opt.Arena
	if ar == nil {
		ar = &Arena{}
	}
	t := &Tree{
		BoxLo:      lo,
		BoxSize:    size,
		MaxLeaf:    opt.MaxLeaf,
		forceSplit: opt.ForceSplit,
	}
	hostNow := opt.Obs.HostNow

	// Phase 1: Morton keying.
	h0 := hostNow()
	if cap(ar.keys) < n {
		ar.keys = make([]key.K, n)
	}
	ar.keys = ar.keys[:n]
	keys := ar.keys
	for i := range keys {
		keys[i] = key.FromPosition(pos[i], lo, size)
	}

	// Phase 2: radix sort the keys, then gather bodies into tree order.
	h1 := hostNow()
	perm := ar.sorter.SortPerm(keys, 1)
	if cap(ar.bodies) < n {
		ar.bodies = make([]Body, n)
		ar.src = make([]gravity.Source, n)
	}
	ar.bodies, ar.src = ar.bodies[:n], ar.src[:n]
	bodies, src := ar.bodies, ar.src
	for i, p := range perm {
		bodies[i] = Body{Pos: pos[p], Mass: mass[p], Key: keys[p], ID: int(p)}
		src[i] = gravity.Source{Pos: pos[p], Mass: mass[p]}
	}
	t.Bodies, t.src = bodies, src

	// Phase 3: build the cells into the slab in pre-order, then index it.
	h2 := hostNow()
	t.store = ar.store
	t.store.cells = t.store.cells[:0]
	t.buildRange(key.Root, 0, n)
	t.store.index()
	ar.store = t.store
	t.recordGroups(ar.groups[:0])
	ar.groups = t.groups
	h3 := hostNow()

	if o := opt.Obs; o != nil {
		reg := o.Reg
		reg.Counter("htree.builds").Inc()
		reg.Counter("htree.build.cells").Add(int64(len(t.store.cells)))
		t.SetObs(o)
		o.HostSpan(obs.HostBuild, "htree", "key", h0, h1)
		o.HostSpan(obs.HostBuild, "htree", "sort", h1, h2)
		o.HostSpan(obs.HostBuild, "htree", "build", h2, h3)
	}
	return t, nil
}

// isLeafRange is the serial leaf test: a range becomes a bucket when it
// fits MaxLeaf bodies or bottoms out at MaxLevel, unless ForceSplit demands
// subdivision (and a deeper level exists).
func (t *Tree) isLeafRange(k key.K, lo, hi int) bool {
	mustSplit := t.forceSplit != nil && t.forceSplit(k) && k.Level() < key.MaxLevel
	return (hi-lo <= t.MaxLeaf || k.Level() >= key.MaxLevel) && !mustSplit
}

// childEnd returns the end of daughter cell ck's body range that starts at
// start, searching within [start, hi) of the key-sorted body array.
func (t *Tree) childEnd(ck key.K, start, hi int) int {
	loKey, hiKey := ck.BodyKeyRange()
	if hiKey <= loKey {
		// The range's upper bound overflowed 64 bits: ck is the rightmost
		// cell of its level, so it takes everything left.
		return hi
	}
	// end = first body with key >= hiKey
	return start + sort.Search(hi-start, func(i int) bool {
		return t.Bodies[start+i].Key >= hiKey
	})
}

// buildRange recursively appends the cells for k covering Bodies[lo:hi] to
// the slab in pre-order (parent before daughters, daughters in octant order
// — so leaves land in ascending body order).
//
// The per-cell arithmetic is bit-identical to the serial reference: the
// leaf multipole mirrors gravity.FromBodies term for term (reading bodies
// straight from the sorted array instead of staging copies), and every Bmax
// takes the maximum of squared distances with one final square root —
// math.Sqrt is correctly rounded, hence monotone, so
// sqrt(max d^2) == max sqrt(d^2) exactly.
func (t *Tree) buildRange(k key.K, lo, hi int) {
	ci := len(t.store.cells)
	t.store.cells = append(t.store.cells, Cell{Key: k, N: hi - lo, Lo: lo, Hi: hi})
	if t.isLeafRange(k, lo, hi) {
		bodies := t.Bodies[lo:hi]
		var mp gravity.Multipole
		for i := range bodies {
			mp.M += bodies[i].Mass
			mp.COM = mp.COM.AddScaled(bodies[i].Mass, bodies[i].Pos)
		}
		if mp.M > 0 {
			mp.COM = mp.COM.Scale(1 / mp.M)
		}
		// Quadrupole accumulation fused with the Bmax scan: r2 here is the
		// exact squared distance the reference's maxDist computes.
		bm2 := 0.0
		for i := range bodies {
			m := bodies[i].Mass
			d := bodies[i].Pos.Sub(mp.COM)
			r2 := d.Norm2()
			mp.Q.AddOuterScaled(3*m, d)
			mp.Q[0] -= m * r2
			mp.Q[1] -= m * r2
			mp.Q[2] -= m * r2
			if r2 > bm2 {
				bm2 = r2
			}
		}
		c := &t.store.cells[ci]
		c.Leaf = true
		c.Mp = mp
		c.Bmax = math.Sqrt(bm2)
		return
	}
	// Partition the sorted range by daughter key ranges.
	start := lo
	var parts [8]gravity.Multipole
	var kids [8]int32
	np := 0
	var mask uint8
	for oct := 0; oct < 8; oct++ {
		ck := k.Child(oct)
		end := t.childEnd(ck, start, hi)
		if end > start {
			childCi := len(t.store.cells)
			t.buildRange(ck, start, end)
			mask |= 1 << uint(oct)
			parts[np] = t.store.cells[childCi].Mp
			kids[np] = int32(childCi - ci)
			np++
		}
		start = end
	}
	mp := gravity.Combine(parts[:np]...)
	c := &t.store.cells[ci]
	c.ChildMask = mask
	c.kids = kids
	c.Mp = mp
	c.Bmax = math.Sqrt(farthest2(t.Bodies, t.store.cells, ci, mp.COM, 0))
}

// bmaxMargin widens the bound on a daughter's bodies far beyond the few ulps
// its rounded distances can be off, and pruneFloor is the running maximum
// below which nothing is skipped: under it a square may have underflowed and
// its error is absolute, not relative.
const (
	bmaxMargin = 1 + 1e-9
	pruneFloor = 0x1p-900
)

// farthest2 returns the larger of m and the largest squared distance from c
// of a body below cells[ci] (daughters at their relative links, Bmax already
// set): bit for bit what a scan of the cell's whole body range finds. Every
// body of daughter k lies within |c − COM_k| + Bmax_k of c, so daughters are
// visited by that bound, largest first, and the first whose bound (widened
// by bmaxMargin) squared is below the running maximum ends the visit: it and
// every later daughter hold no farther body. Only the order of the scan
// changes, and the maximum of a set does not depend on it.
func farthest2(bodies []Body, cells []Cell, ci int, c vec.V3, m float64) float64 {
	cl := &cells[ci]
	if cl.Leaf {
		for i := cl.Lo; i < cl.Hi; i++ {
			if d2 := bodies[i].Pos.Sub(c).Norm2(); d2 > m {
				m = d2
			}
		}
		return m
	}
	var kid [8]int
	var bound2 [8]float64
	nk := 0
	for ; nk < 8 && cl.kids[nk] != 0; nk++ {
		k := ci + int(cl.kids[nk])
		b := (cells[k].Mp.COM.Dist(c) + cells[k].Bmax) * bmaxMargin
		// Insertion by descending bound; ties keep octant order.
		j := nk
		for ; j > 0 && bound2[j-1] < b*b; j-- {
			kid[j], bound2[j] = kid[j-1], bound2[j-1]
		}
		kid[j], bound2[j] = k, b*b
	}
	for j := 0; j < nk; j++ {
		if bound2[j] < m && m >= pruneFloor {
			break
		}
		m = farthest2(bodies, cells, kid[j], c, m)
	}
	return m
}
