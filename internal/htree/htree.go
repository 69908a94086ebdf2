// Package htree implements the Hashed Oct-Tree (HOT) of Warren & Salmon:
// bodies are labeled with Morton keys (package key), cells are addressed by
// their key through a hash table, and the tree topology is implicit in the
// key arithmetic. The level of indirection through the hash table is what
// lets the parallel code (package core) catch accesses to non-local cells
// and request them from other processors by global key name.
//
// Construction is a parallel pipeline (see build.go): parallel Morton
// keying, a stable parallel radix sort, octant-parallel subtree builds, and
// a bottom-up multipole merge — bit-identical to a serial build for any
// worker count. Cells live in a contiguous slab addressed through a flat
// open-addressing hash table (see cellstore.go).
package htree

import (
	"fmt"
	"math"

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
	// Leaf marks a bucket. Lo/Hi is the body index range below the cell
	// (half-open), on every cell: a leaf's bodies, or a sink group's.
	Leaf   bool
	Lo, Hi int
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
	// Phases records the construction phase timings of this tree.
	Phases BuildPhases

	forceSplit func(k key.K) bool
	store      cellStore
	// src holds position and mass of Bodies, index for index, in the form
	// the force kernels read: a leaf's bodies go on an interaction list as
	// the segment src[Lo:Hi], and nothing is copied per list.
	src []gravity.Source
	// groups are the sink groups in body order, recorded at build (Groups).
	groups []*Cell

	// observation handles (no-ops until SetObs).
	o  *obs.Obs
	tr *obs.Track
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
	// Workers bounds the host goroutines of the build pipeline (keying,
	// radix sort, subtree construction); <= 0 means GOMAXPROCS. The built
	// tree is bit-identical for every value.
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

func maxDist(from vec.V3, pos []vec.V3) float64 {
	m := 0.0
	for _, p := range pos {
		if d := p.Dist(from); d > m {
			m = d
		}
	}
	return m
}

// Cell returns the cell stored under k, if any — the hash-table lookup at
// the heart of the HOT scheme.
func (t *Tree) Cell(k key.K) (*Cell, bool) {
	c := t.store.get(k)
	return c, c != nil
}

// Root returns the root cell.
func (t *Tree) Root() *Cell {
	c := t.store.get(key.Root)
	if c == nil {
		panic("htree: tree has no root")
	}
	return c
}

// NumCells returns the number of cells in the hash table.
func (t *Tree) NumCells() int { return len(t.store.cells) }

// Sources returns position and mass of Bodies, index for index, in the row
// form the kernels read: the array the ranges of a ball search index. It is
// the tree's own storage and must not be written.
func (t *Tree) Sources() []gravity.Source { return t.src }

// LeafBodies returns the bodies of a leaf cell as kernel sources in a
// freshly allocated slice the caller owns.
func (t *Tree) LeafBodies(c *Cell) []gravity.Source {
	return t.AppendLeafBodies(make([]gravity.Source, 0, c.Hi-c.Lo), c)
}

// AppendLeafBodies appends the bodies of a leaf cell to dst and returns the
// extended slice — the allocation-free variant of LeafBodies for callers
// with a reusable scratch buffer.
func (t *Tree) AppendLeafBodies(dst []gravity.Source, c *Cell) []gravity.Source {
	return append(dst, t.src[c.Lo:c.Hi]...)
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

	stack := []key.K{key.Root}
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := t.store.get(k)
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
		for oct := 0; oct < 8; oct++ {
			if c.ChildMask&(1<<uint(oct)) != 0 {
				stack = append(stack, k.Child(oct))
			}
		}
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

// CheckInvariants verifies structural invariants, returning the first
// violation found: every cell holds N bodies over its range, the root's is
// the body array and an internal cell's the span of its daughters' (so the
// leaves partition the body array), every body's key lies in its leaf,
// multipole masses match, child masks are consistent with the hash table and
// daughter links with both, the kernel-form body array mirrors Bodies, and
// every slab cell is reachable from the root.
func (t *Tree) CheckInvariants() error {
	root := t.Root()
	if root.N != len(t.Bodies) || root.Lo != 0 || root.Hi != len(t.Bodies) {
		return fmt.Errorf("root N = %d over [%d,%d), want %d over all", root.N, root.Lo, root.Hi, len(t.Bodies))
	}
	visited := 0
	var walk func(k key.K) error
	walk = func(k key.K) error {
		c, ok := t.Cell(k)
		if !ok {
			return fmt.Errorf("missing cell %v", k)
		}
		visited++
		if c.N < 0 || c.N != c.Hi-c.Lo {
			return fmt.Errorf("cell %v holds %d bodies over [%d,%d)", k, c.N, c.Lo, c.Hi)
		}
		if c.Leaf {
			for i := c.Lo; i < c.Hi; i++ {
				if !k.Contains(t.Bodies[i].Key) {
					return fmt.Errorf("body %d key %v outside leaf %v", i, t.Bodies[i].Key, k)
				}
			}
			return nil
		}
		var mass float64
		ci, nk, at := t.store.find(k), 0, c.Lo
		for oct := 0; oct < 8; oct++ {
			has := c.ChildMask&(1<<uint(oct)) != 0
			child, inTab := t.Cell(k.Child(oct))
			if has != inTab {
				return fmt.Errorf("cell %v childmask/hash mismatch at octant %d", k, oct)
			}
			if has {
				if d := c.kids[nk]; d == 0 || &t.store.cells[ci+d] != child {
					return fmt.Errorf("cell %v daughter link %d (%+d) does not lead to octant %d", k, nk, d, oct)
				}
				if child.Lo != at {
					return fmt.Errorf("cell %v: daughter %v starts at body %d, want %d", k, child.Key, child.Lo, at)
				}
				at = child.Hi
				nk++
				if err := walk(k.Child(oct)); err != nil {
					return err
				}
				mass += child.Mp.M
			}
		}
		if nk < 8 && c.kids[nk] != 0 {
			return fmt.Errorf("cell %v has a daughter link past its %d daughters", k, nk)
		}
		if at != c.Hi {
			return fmt.Errorf("cell %v spans bodies [%d,%d) but its daughters end at %d", k, c.Lo, c.Hi, at)
		}
		if math.Abs(mass-c.Mp.M) > 1e-9*(1+math.Abs(c.Mp.M)) {
			return fmt.Errorf("cell %v mass %v but children sum %v", k, c.Mp.M, mass)
		}
		return nil
	}
	if err := walk(key.Root); err != nil {
		return err
	}
	if len(t.src) != len(t.Bodies) {
		return fmt.Errorf("%d kernel-form bodies for %d bodies", len(t.src), len(t.Bodies))
	}
	for i := range t.Bodies {
		if b := &t.Bodies[i]; t.src[i] != (gravity.Source{Pos: b.Pos, Mass: b.Mass}) {
			return fmt.Errorf("kernel-form body %d is %+v, body %d is %+v", i, t.src[i], i, *b)
		}
	}
	if visited != t.NumCells() {
		return fmt.Errorf("walk reached %d of %d stored cells", visited, t.NumCells())
	}
	return nil
}
