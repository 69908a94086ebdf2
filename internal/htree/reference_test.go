package htree

import (
	"fmt"
	"sort"

	"spacesim/internal/gravity"
	"spacesim/internal/key"
	"spacesim/internal/vec"
)

// BuildReference is the seed serial construction path, the oracle of the
// bit-identity tests: one-at-a-time keying, a comparison sort, and a
// recursive build that allocates one map entry per cell and fresh pos/mass
// slices per leaf, then converted into the flat store so the returned Tree
// walks like any other.
//
// The one deviation from the original seed is the sort order: the seed used
// an unstable key-only sort.Slice, which put coincident bodies (equal
// Morton keys) in arbitrary order and perturbed leaf combine order. Both
// this path and the pipeline order bodies by (Key, ID), so their trees —
// and every derived float — are directly comparable bit for bit.
func BuildReference(pos []vec.V3, mass []float64, opt Options) (*Tree, error) {
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
	t := &Tree{
		BoxLo:      lo,
		BoxSize:    size,
		MaxLeaf:    opt.MaxLeaf,
		forceSplit: opt.ForceSplit,
	}

	t.Bodies = make([]Body, len(pos))
	for i := range pos {
		t.Bodies[i] = Body{Pos: pos[i], Mass: mass[i], Key: key.FromPosition(pos[i], lo, size), ID: i}
	}
	sort.Slice(t.Bodies, func(i, j int) bool {
		a, b := &t.Bodies[i], &t.Bodies[j]
		return a.Key < b.Key || (a.Key == b.Key && a.ID < b.ID)
	})
	t.src = make([]gravity.Source, len(t.Bodies))
	for i := range t.Bodies {
		t.src[i] = gravity.Source{Pos: t.Bodies[i].Pos, Mass: t.Bodies[i].Mass}
	}
	cells := make(map[key.K]*Cell, 2*len(pos)/opt.MaxLeaf+16)
	refBuild(t, cells, key.Root, 0, len(t.Bodies))

	// Convert the cell map into the flat store, pre-order from the root so
	// the slab meets leaves in body order (what Leaves relies on), linking
	// each cell to where its daughters land.
	t.store.reset(len(cells))
	var flatten func(k key.K) int32
	flatten = func(k key.K) int32 {
		c := cells[k]
		idx := int32(len(t.store.cells))
		t.store.cells = append(t.store.cells, *c)
		t.store.insert(idx)
		n := 0
		for oct := 0; oct < 8; oct++ {
			if c.ChildMask&(1<<uint(oct)) != 0 {
				t.store.cells[idx].kids[n] = flatten(k.Child(oct)) - idx
				n++
			}
		}
		return idx
	}
	flatten(key.Root)
	t.recordGroups(nil)
	if opt.Obs != nil {
		t.SetObs(opt.Obs)
	}
	return t, nil
}

// refBuild recursively constructs the cell for k covering Bodies[lo:hi] —
// the seed algorithm, verbatim.
func refBuild(t *Tree, cells map[key.K]*Cell, k key.K, lo, hi int) *Cell {
	c := &Cell{Key: k, N: hi - lo, Lo: lo, Hi: hi}
	cells[k] = c
	if t.isLeafRange(k, lo, hi) {
		c.Leaf = true
		pos := make([]vec.V3, hi-lo)
		mass := make([]float64, hi-lo)
		for i := lo; i < hi; i++ {
			pos[i-lo] = t.Bodies[i].Pos
			mass[i-lo] = t.Bodies[i].Mass
		}
		c.Mp = gravity.FromBodies(pos, mass)
		c.Bmax = maxDist(c.Mp.COM, pos)
		return c
	}
	// Partition the sorted range by daughter key ranges.
	start := lo
	var parts []gravity.Multipole
	for oct := 0; oct < 8; oct++ {
		ck := k.Child(oct)
		end := t.childEnd(ck, start, hi)
		if end > start {
			child := refBuild(t, cells, ck, start, end)
			c.ChildMask |= 1 << uint(oct)
			parts = append(parts, child.Mp)
		}
		start = end
	}
	c.Mp = gravity.Combine(parts...)
	// Bmax over all bodies below (exact, from the contiguous range).
	bm := 0.0
	for i := lo; i < hi; i++ {
		if d := t.Bodies[i].Pos.Dist(c.Mp.COM); d > bm {
			bm = d
		}
	}
	c.Bmax = bm
	return c
}

// maxDist is the reference's Bmax: the largest distance of pos from a point,
// one square root per body.
func maxDist(from vec.V3, pos []vec.V3) float64 {
	m := 0.0
	for _, p := range pos {
		if d := p.Dist(from); d > m {
			m = d
		}
	}
	return m
}
