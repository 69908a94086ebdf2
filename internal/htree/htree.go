// Package htree implements the Hashed Oct-Tree (HOT) of Warren & Salmon:
// bodies are labeled with Morton keys (package key), cells are addressed by
// their key through a hash table, and the tree topology is implicit in the
// key arithmetic. The level of indirection through the hash table is what
// lets the parallel code (package core) catch accesses to non-local cells
// and request them from other processors by global key name.
//
// Construction runs on the calling goroutine (see build.go): Morton keying,
// a stable radix sort, and one pre-order recursion that appends every cell
// to a contiguous slab, addressed through a flat open-addressing hash table
// (see cellstore.go).
package htree

import (
	"math"
	"math/bits"

	"spacesim/internal/gravity"
	"spacesim/internal/key"
	"spacesim/internal/obs"
	"spacesim/internal/vec"
)

// Cell is one node of the oct-tree: either an internal cell with daughter
// cells, or a leaf holding a contiguous run of the key-sorted body array.
type Cell struct {
	Key key.K
	// Mp is the truncated multipole expansion of everything below the cell.
	Mp gravity.Multipole
	// N is the number of bodies below the cell.
	N int
	// Bmax is the maximum distance from the center of mass to any body in
	// the cell, used by the multipole acceptance criterion.
	Bmax float64
	// Lo/Hi is the body index range below the cell (half-open), on every
	// cell: a leaf's bodies, or a sink group's.
	Lo, Hi int
	// Leaf marks a bucket.
	Leaf bool
	// ChildMask has bit i set when daughter octant i exists.
	ChildMask uint8
	// kids are the slab positions of the daughters relative to this cell's
	// own, in ascending octant order, ended by a zero when there are fewer
	// than eight (no cell is its own daughter). Relative, so a run of cells
	// keeps its links when it is copied into another slab.
	kids [8]int32
}

// Body is a particle in tree order.
type Body struct {
	Pos  vec.V3
	Mass float64
	Key  key.K
	// ID is the caller's original index, tracked through the key sort.
	ID int
}

// Tree is the hashed oct-tree over a body set.
type Tree struct {
	// BoxLo and BoxSize define the root cell cube.
	BoxLo   vec.V3
	BoxSize float64
	// Bodies are sorted by (key, original index); leaf cells reference
	// ranges of this slice. When the tree was built from an Arena this
	// slice is arena storage, invalidated by the arena's next build.
	Bodies []Body
	// MaxLeaf is the bucket size: cells with at most this many bodies are
	// not subdivided.
	MaxLeaf int

	forceSplit func(k key.K) bool
	store      cellStore
	// src holds position and mass of Bodies, index for index, in the form
	// the force kernels read: a leaf's bodies go on an interaction list as
	// the segment src[Lo:Hi], and nothing is copied per list.
	src []gravity.Source
	// groups are the sink groups in body order, recorded at build (Groups).
	groups []*Cell

	// observation handle (no-op until SetObs).
	o *obs.Obs
}

// Options configures tree construction.
type Options struct {
	// MaxLeaf is the bucket size (default 8).
	MaxLeaf int
	// BoxLo/BoxSize fix the root cube; when BoxSize is zero the bounding
	// cube of the bodies (slightly padded) is used.
	BoxLo   vec.V3
	BoxSize float64
	// ForceSplit, when non-nil, forces subdivision of any cell for which it
	// returns true, even below the bucket size (subject to MaxLevel). The
	// parallel code uses it to split cells straddling domain boundaries so
	// that every leaf is complete within one processor's key range.
	ForceSplit func(k key.K) bool
	// Workers is read by no code: retained for bench/, which spells
	// Options{Workers: ...}. A build runs on the calling goroutine. Goes
	// with the next [benchmark] PR.
	Workers int
	// Arena, when non-nil, supplies reusable build storage so per-step
	// rebuilds stop allocating. Building invalidates any tree previously
	// built from the same arena; an arena must not serve two builds
	// concurrently.
	Arena *Arena
	// Obs, when non-nil, attaches observation at build time: phase
	// histograms and counters, host-time build spans when tracing, and the
	// walk instrumentation of SetObs.
	Obs *obs.Obs
}

// BoundingCube returns a cube enclosing all positions, padded by 1e-6 of
// its edge so boundary points stay strictly inside.
func BoundingCube(pos []vec.V3) (lo vec.V3, size float64) {
	mn, mx := pos[0], pos[0]
	for _, p := range pos[1:] {
		mn = vec.Min(mn, p)
		mx = vec.Max(mx, p)
	}
	d := mx.Sub(mn)
	size = d.MaxAbs()
	if size == 0 {
		size = 1
	}
	size *= 1 + 2e-6
	// center the cube on the data
	c := mn.Add(mx).Scale(0.5)
	lo = vec.V3{c[0] - size/2, c[1] - size/2, c[2] - size/2}
	return lo, size
}

// Cell returns the cell stored under k, if any — the hash-table lookup at
// the heart of the HOT scheme.
func (t *Tree) Cell(k key.K) (*Cell, bool) {
	c := t.store.get(k)
	return c, c != nil
}

// Root returns the root cell.
func (t *Tree) Root() *Cell { return t.At(t.Find(key.Root)) }

// NumCells returns the number of cells in the hash table.
func (t *Tree) NumCells() int { return len(t.store.cells) }

// Sources returns position and mass of Bodies, index for index, in the row
// form the kernels read: the array the ranges of a ball search index. It is
// the tree's own storage and must not be written.
func (t *Tree) Sources() []gravity.Source { return t.src }

// Find returns the slab index of the cell stored under k, or -1: the index
// by which a walk's stack names the cell (BucketScratch.Push).
func (t *Tree) Find(k key.K) int32 { return t.store.find(k) }

// At returns the cell at slab index i.
func (t *Tree) At(i int32) *Cell { return &t.store.cells[i] }

// Daughters appends to dst the slab indices of the daughters of the cell,
// which sits at index at of its slab, in ascending octant order.
func (c *Cell) Daughters(at int32, dst []int32) []int32 {
	for _, d := range c.kids {
		if d == 0 {
			break
		}
		dst = append(dst, at+d)
	}
	return dst
}

// Link makes the cell at index at of a slab that no build laid out (package
// core's replicated top) the parent of the cells at first,
// first+1, ..., one per bit of ChildMask in ascending octant order: a walk
// then opens it like a cell of a built tree.
func (c *Cell) Link(at, first int32) {
	for j := int32(0); j < int32(bits.OnesCount8(c.ChildMask)); j++ {
		c.kids[j] = first + j - at
	}
}

// Bare returns the cell without what places it in this tree's slab — its
// daughter links and body range — as another slab receives it.
func (c *Cell) Bare() Cell {
	b := *c
	b.Lo, b.Hi, b.kids = 0, 0, [8]int32{}
	return b
}

// WalkStats counts the work of one force evaluation.
type WalkStats struct {
	CellInteractions int
	BodyInteractions int
	CellsOpened      int
}

// AcceptMAC is the multipole acceptance criterion: a cell whose center of
// mass lies at distance d from the sink — for a bucket of sinks, from the
// surface of its bounding sphere — is accepted when d > bmax/theta and
// d > 0, bmax being the distance from the center of mass to the farthest
// body of the cell. This is the Salmon-Warren style criterion, which bounds
// the worst-case error by the true body distribution rather than the
// geometric cell size; the second clause keeps a cell of coincident bodies
// (bmax 0) from being accepted by a sink on or inside it.
func AcceptMAC(d, bmax, theta float64) bool {
	return d > bmax/theta && d > 0
}

// Accel evaluates the gravitational field at p by tree traversal with
// opening parameter theta and Plummer softening eps. Bodies exactly at p
// (self-interaction) are skipped. The leaf loop repeats gravity's body
// kernel for one sink, operation for operation, so that with no cell
// accepted the per-body and the grouped walk agree bit for bit.
func (t *Tree) Accel(p vec.V3, theta, eps float64) (vec.V3, float64, WalkStats) {
	var acc vec.V3
	var pot float64
	var st WalkStats
	eps2 := eps * eps

	stack := []int32{t.store.find(key.Root)}
	for len(stack) > 0 {
		ci := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := &t.store.cells[ci]
		d := p.Dist(c.Mp.COM)
		if !c.Leaf && AcceptMAC(d, c.Bmax, theta) {
			a, ph := c.Mp.AccelAt(p, eps)
			acc = acc.Add(a)
			pot += ph
			st.CellInteractions++
			continue
		}
		if c.Leaf {
			for i := c.Lo; i < c.Hi; i++ {
				b := &t.Bodies[i]
				dv := b.Pos.Sub(p)
				r2 := math.FMA(dv[2], dv[2], math.FMA(dv[1], dv[1], dv[0]*dv[0]))
				if r2 == 0 {
					continue // self
				}
				rinv := gravity.Rsqrt(r2 + eps2)
				mr3 := (b.Mass * rinv) * (rinv * rinv)
				acc[0] = math.FMA(mr3, dv[0], acc[0])
				acc[1] = math.FMA(mr3, dv[1], acc[1])
				acc[2] = math.FMA(mr3, dv[2], acc[2])
				pot = math.FMA(-b.Mass, rinv, pot)
				st.BodyInteractions++
			}
			continue
		}
		st.CellsOpened++
		stack = c.Daughters(ci, stack)
	}
	return acc, pot, st
}

// AccelAll evaluates the field at every body, returning accelerations and
// potentials indexed by the original body IDs, plus aggregate walk stats.
func (t *Tree) AccelAll(theta, eps float64) ([]vec.V3, []float64, WalkStats) {
	n := len(t.Bodies)
	acc := make([]vec.V3, n)
	pot := make([]float64, n)
	var total WalkStats
	for i := range t.Bodies {
		a, p, st := t.Accel(t.Bodies[i].Pos, theta, eps)
		acc[t.Bodies[i].ID] = a
		pot[t.Bodies[i].ID] = p
		total.CellInteractions += st.CellInteractions
		total.BodyInteractions += st.BodyInteractions
		total.CellsOpened += st.CellsOpened
	}
	return acc, pot, total
}
