package htree

// Grouped traversal (the 2HOT grouped walk): instead of one tree walk per
// body, one walk per sink group (Groups — a cell, not necessarily a leaf;
// "bucket" below) builds a single interaction list that is then applied to
// every body in the group through the batched kernels. The walk goes from a
// cell to its daughters by slab position and the list it writes holds
// references into the tree (gravity.List): a visit costs no hash lookup and
// an entry no copy of a multipole or a body. The multipole acceptance test
// is made at the group level: the distance is measured from the group's
// bounding sphere (center = its center of mass, radius = its Bmax), so a
// cell accepted for the group satisfies the per-body MAC for every sink
// inside it — by the triangle inequality dist(sink, COM) >= dist(center,
// COM) - radius — and the per-body worst-case error bound is preserved.

import (
	"math"

	"spacesim/internal/gravity"
	"spacesim/internal/key"
	"spacesim/internal/obs"
	"spacesim/internal/par"
	"spacesim/internal/vec"
)

// SetObs attaches an observation handle to the tree: grouped walks then
// accumulate bucket/interaction counters and, when retention is on, record
// each walk as a host-time span (the shared-memory tree runs on the host,
// outside the virtual machine model).
func (t *Tree) SetObs(o *obs.Obs) { t.o = o }

// Leaves returns the leaf buckets in body order, so leaf i covers
// Bodies[leafI.Lo:leafI.Hi] with ascending, adjacent ranges. The slab is
// laid out in pre-order, daughters in octant order, so a single forward
// scan suffices — no tree walk, no hash probes.
func (t *Tree) Leaves() []*Cell {
	cells := t.store.cells
	out := make([]*Cell, 0, len(cells)/2+1)
	for i := range cells {
		if cells[i].Leaf {
			out = append(out, &cells[i])
		}
	}
	return out
}

// groupMax is the most bodies a sink group holds unless it is one leaf: 80
// sinks fill ten eight-lane (or twenty four-lane) kernel blocks. It does not
// depend on the ISA, MaxLeaf or any option, so forces are the same bits on
// every host and for any worker count. Only Grouping changes it.
var groupMax = 80

// exactLeaves makes GatherList list every leaf's bodies without testing the
// leaf, the rule before leaves were tested like any other cell. Only
// Grouping sets it.
var exactLeaves = false

// Grouping makes the trees built from now on group their sinks in the
// largest cells of at most max bodies (max 0: one group per leaf), and
// GatherList list every leaf's bodies untested if exact is set, until restore
// is called. It exists for tests: the pins recorded one walk per leaf with
// leaves never accepted hold under Grouping(0, true), and the error–cost
// table of DESIGN.md §6 sweeps max. It writes package state, so nothing may
// build or walk a tree between the call and restore.
func Grouping(max int, exact bool) (restore func()) {
	oldMax, oldExact := groupMax, exactLeaves
	groupMax, exactLeaves = max, exact
	return func() { groupMax, exactLeaves = oldMax, oldExact }
}

// recordGroups sets the tree's sink groups, appended to dst in body order:
// the maximal cells holding at most groupMax bodies, and each leaf holding
// more (a MaxLevel pile, or MaxLeaf above groupMax).
func (t *Tree) recordGroups(dst []*Cell) {
	cells := t.store.cells
	stack := []int32{t.store.find(key.Root)}
	for len(stack) > 0 {
		ci := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := &cells[ci]
		if c.Leaf || c.N <= groupMax {
			dst = append(dst, c)
			continue
		}
		for j := 7; j >= 0; j-- { // ascending octants pop first
			if d := c.kids[j]; d != 0 {
				stack = append(stack, ci+d)
			}
		}
	}
	t.groups = dst
}

// Groups returns the tree's sink groups, recorded at build (recordGroups),
// in body order: group i covers Bodies[g.Lo:g.Hi] with ascending, adjacent
// ranges. The slice is the tree's: do not write it.
func (t *Tree) Groups() []*Cell { return t.groups }

// BoundingSphere returns the cell's bounding sphere over its bodies:
// centered on the center of mass with radius Bmax.
func (c *Cell) BoundingSphere() (center vec.V3, radius float64) {
	return c.Mp.COM, c.Bmax
}

// BucketMAC is the acceptance test of one bucket's walk: AcceptMAC with the
// distance measured from the surface of the bucket's bounding sphere,
//
//	AcceptMAC(com.Dist(center)-radius, bmax, theta)
//
// decided for almost every cell without the square root or the divide. In
// real numbers that expression is r > radius + bmax/theta, r being the
// distance between the two centers, and both sides are non-negative, so r²
// against the squared threshold gives the same answer. Prefilter trusts the
// squared form only when r² misses the threshold by more than macBand,
// relatively; Exact, the expression above, decides the rest, so the two
// together equal it on every input, bit for bit.
//
// A test built for a sink group (NewGroupMAC) also knows the group's body
// range and key, and a walk accepts no cell that shares a body with it
// (Owns, OwnsKey): the group's own bodies reach its sinks only as direct
// bodies, each exactly once, whatever theta is.
type BucketMAC struct {
	center        vec.V3
	radius, theta float64
	invTheta      float64
	lo, hi        int
	key           key.K
}

const (
	// macBand is six orders above what rounding can move either form: a few
	// ulps (1e-16) on r, on the threshold and on their squares.
	macBand = 1e-9
	// A threshold outside [macMin, macMax] has a square that loses precision
	// to underflow, or overflow; a zero threshold (a cell of coincident bodies
	// seen from a one-body bucket) falls outside too.
	macMin = 0x1p-480
	macMax = 0x1p+480
)

// NewBucketMAC returns the test for the bucket whose bounding sphere is
// (center, radius) at opening parameter theta. Prefilter decides nothing for
// a radius that is negative or a theta that is not positive (or either NaN),
// where the squared form and the expression part ways.
func NewBucketMAC(center vec.V3, radius, theta float64) BucketMAC {
	m := BucketMAC{center: center, radius: radius, theta: theta, invTheta: 1 / theta}
	if !(radius >= 0 && theta > 0) {
		m.invTheta = math.NaN()
	}
	return m
}

// NewGroupMAC returns the test of sink group g's walk at opening parameter
// theta: NewBucketMAC on g's bounding sphere, owning g's body range.
func NewGroupMAC(g *Cell, theta float64) BucketMAC {
	center, radius := g.BoundingSphere()
	m := NewBucketMAC(center, radius, theta)
	m.lo, m.hi, m.key = g.Lo, g.Hi, g.Key
	return m
}

// Owns reports whether the body range [lo, hi) shares a body with the group
// the test was built for (none, for NewBucketMAC): a cell that does holds one
// of the group's sinks and is never accepted.
func (m *BucketMAC) Owns(lo, hi int) bool { return lo < m.hi && m.lo < hi }

// OwnsKey reports whether cell k contains the group's cell or lies inside it
// (never, for NewBucketMAC): the key form of Owns, for a cell above the
// bodies of several owners whose body range this tree does not know.
func (m *BucketMAC) OwnsKey(k key.K) bool { return m.key != 0 && k.Overlaps(m.key) }

// Dist2 is the squared distance from the bucket's center to com: the r²
// Prefilter takes, and the square whose root Exact takes. It is written on
// scalars because a vec.V3 passed by value goes through memory, and that
// stall was most of what a cell visit cost.
func (m *BucketMAC) Dist2(com *vec.V3) float64 {
	dx, dy, dz := com[0]-m.center[0], com[1]-m.center[1], com[2]-m.center[2]
	return dx*dx + dy*dy + dz*dz
}

// Prefilter decides the test from r2 = Dist2(com) when it can: decided is
// false inside the band around the threshold and for thresholds the squares
// cannot be trusted with, and Exact must then be asked. It and Dist2 are two
// functions because each fits the inliner's budget and their sum does not: a
// single test taking both centers by value, called per visited cell, made
// the serial walk 12-20% slower than the square root it replaced.
func (m *BucketMAC) Prefilter(r2, bmax float64) (accept, decided bool) {
	t := m.radius + bmax*m.invTheta
	if !(bmax >= 0 && t >= macMin && t <= macMax) {
		return false, false
	}
	t2 := t * t
	if r2 > t2*(1+macBand) {
		return true, true
	}
	return false, r2 < t2*(1-macBand)
}

// Exact is the test as defined, square root and all.
func (m *BucketMAC) Exact(com *vec.V3, bmax float64) bool {
	return AcceptMAC(com.Dist(m.center)-m.radius, bmax, m.theta)
}

// Accept is the test of cell c as a walk makes it: Prefilter, and Exact
// where Prefilter declines. Gather spells it out, to keep its registers.
func (m *BucketMAC) Accept(c *Cell) bool {
	accept, decided := m.Prefilter(m.Dist2(&c.Mp.COM), c.Bmax)
	if !decided {
		accept = m.Exact(&c.Mp.COM, c.Bmax)
	}
	return accept
}

// BucketScratch holds one bucket's interaction list and the reusable
// traversal and sink-side buffers of its evaluation. It is the one scratch
// type of the grouped walk: the serial tree keeps one per worker, the
// parallel engine (package core) one per list being gathered or evaluated.
// The zero value is ready to use.
type BucketScratch struct {
	// List is the interaction list: accepted cells and segments of direct
	// bodies, appended to by Gather. It refers to the tree's cells and
	// bodies (and to what Far resolves), so it is good for as long as they
	// are.
	List gravity.List

	// Ball turns the walk into a neighbour search around the bucket: with a
	// test built as NewBucketMAC(center, radius+R, 1), "accepted" means the
	// cell's bounding sphere (COM, Bmax) lies wholly outside the ball of
	// radius R around the bucket's bounding sphere, so GatherList drops an
	// accepted cell instead of listing it and appends the body range of every
	// leaf that survives to Ranges. The list is left alone. Every body within
	// R of any point of the bucket's sphere is in a listed range, up to the
	// rounding of the distances involved.
	Ball   bool
	Ranges []BodyRange

	// stack holds the slab indices the walk has still to visit (Push).
	stack          []int32
	sx, sy, sz     []float64
	ax, ay, az, pp []float64
}

// BodyRange is the half-open range Bodies[Lo:Hi] (and Sources()[Lo:Hi]) of
// one leaf, as a ball search lists it.
type BodyRange struct{ Lo, Hi int }

// Reset empties the interaction list and the ball search's ranges, keeping
// the backing arrays.
func (sc *BucketScratch) Reset() {
	sc.List.Reset()
	sc.Ranges = sc.Ranges[:0]
}

// grow resizes the sink-side arrays to n sinks, zeroing the accumulators.
func (sc *BucketScratch) grow(n int) {
	if cap(sc.sx) < n {
		sc.sx = make([]float64, n)
		sc.sy = make([]float64, n)
		sc.sz = make([]float64, n)
		sc.ax = make([]float64, n)
		sc.ay = make([]float64, n)
		sc.az = make([]float64, n)
		sc.pp = make([]float64, n)
	}
	sc.sx, sc.sy, sc.sz = sc.sx[:n], sc.sy[:n], sc.sz[:n]
	sc.ax, sc.ay, sc.az, sc.pp = sc.ax[:n], sc.ay[:n], sc.az[:n], sc.pp[:n]
	for i := 0; i < n; i++ {
		sc.ax[i], sc.ay[i], sc.az[i], sc.pp[i] = 0, 0, 0, 0
	}
}

// GatherList walks the subtree under root, a cell of this tree, once for the
// bucket whose test is mac: Gather from root, over this tree alone.
func (t *Tree) GatherList(root key.K, mac *BucketMAC, sc *BucketScratch) (opened int) {
	sc.stack = append(sc.stack[:0], t.store.find(root))
	return t.Gather(mac, sc, nil)
}

// Push puts slab indices on the scratch's walk stack, the last on top.
func (sc *BucketScratch) Push(i ...int32) { sc.stack = append(sc.stack, i...) }

// Far lays out the cells at indices from a tree's NumCells on, which other
// ranks own, for a walk over a distributed tree (package core).
type Far interface {
	// Layout returns the top, the cells from index NumCells on, and base, the
	// first index past it. The walk takes top cell j at index route[j] — at
	// NumCells+j as it is, at another index instead — and accepts no top cell
	// linked to daughters (it is above several owners' bodies) whose key
	// overlaps the group's (OwnsKey). Pushed as ^(NumCells+j), top cell j is
	// one the caller's own test accepted, and is listed untested.
	Layout() (top []Cell, route []int32, base int32)
	// Remote resolves index i ≥ base to the branch it stands for: cell ri of
	// another rank's tree rt, which the walk goes through in place.
	Remote(i int32) (rt *Tree, ri int32)
	// Open is told of top cell i, which the walk could neither accept nor
	// open: a branch with nothing resident below it, a miss, Open's to refuse.
	Open(i int32, c *Cell)
}

// Gather drains the scratch's walk stack (Push) for the bucket whose test is
// mac, appending accepted cells and direct-interaction bodies to the list
// (or, in ball mode, appending the body ranges of the leaves the ball
// reaches to Ranges), and returns the number of cells it opened. Daughters
// are pushed in ascending octant order and popped last first. A leaf is
// tested like any other cell: accepted, it goes on the list as its multipole
// (a one-body leaf's is exact); rejected, as its bodies. No cell of this tree
// that the test Owns is accepted, and under Grouping's exact leaves its
// leaves are listed untested. far lays out the indices past NumCells; it may
// be nil if the stack holds none. A resident branch of another rank's tree
// is walked in that tree, every cell tested, its leaves listed as segments
// of that tree's sources.
func (t *Tree) Gather(mac *BucketMAC, sc *BucketScratch, far Far) (opened int) {
	cells := t.store.cells
	stack := sc.stack
	ball := sc.Ball
	exact := exactLeaves && !ball
	// Local cells link only to local cells: a walk meets far cells only if it
	// starts among them, and asks far for them only then.
	fv := farView{far: far, n: int32(len(cells)), off: math.MaxInt32}
	for _, i := range stack {
		if uint(i) >= uint(len(cells)) {
			fv.top, fv.route, fv.base = far.Layout()
			break
		}
	}
	for len(stack) > 0 {
		ci := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		var c *Cell
		var test, accept bool
		if uint(ci) < uint(len(cells)) {
			c = &cells[uint(ci)]
			test = !(exact && c.Leaf) && !mac.Owns(c.Lo, c.Hi)
		} else if ci < 0 { // a top cell the caller has accepted
			c, accept = &fv.top[^ci-fv.n], true
		} else {
			if ci < fv.base {
				ci = fv.route[ci-fv.n]
			}
			switch {
			case int(ci) < len(cells): // a branch this tree holds
				c = &cells[ci]
				test = !(exact && c.Leaf) && !mac.Owns(c.Lo, c.Hi)
			case ci >= fv.base: // another rank's branch, walked where it lies
				if ci < fv.off { // entered: the view moves to the owner's tree
					rt, ri := fv.far.Remote(ci)
					fv.cells, fv.src = rt.store.cells, rt.src
					fv.off = math.MaxInt32 - int32(len(fv.cells))
					ci = fv.off + ri
				}
				c, test = &fv.cells[ci-fv.off], true
			default:
				c = &fv.top[ci-fv.n]
				test = c.kids[0] == 0 || !mac.OwnsKey(c.Key)
			}
		}
		if test {
			var decided bool
			accept, decided = mac.Prefilter(mac.Dist2(&c.Mp.COM), c.Bmax)
			if !decided {
				accept = mac.Exact(&c.Mp.COM, c.Bmax)
			}
		}
		switch {
		case accept && ball: // wholly outside the ball: dropped
		case accept:
			sc.List.Cells = append(sc.List.Cells, &c.Mp)
		case c.kids[0] != 0:
			opened++
			for _, d := range c.kids {
				if d == 0 {
					break
				}
				stack = append(stack, ci+d)
			}
		case int(ci) >= len(cells) && ci >= fv.off: // a leaf of another rank's tree
			sc.List.Segs = append(sc.List.Segs, fv.src[c.Lo:c.Hi:c.Hi])
		case int(ci) >= len(cells): // a top branch with nothing below it
			fv.far.Open(ci, c)
		case ball:
			sc.Ranges = append(sc.Ranges, BodyRange{c.Lo, c.Hi})
		default:
			sc.List.Segs = append(sc.List.Segs, t.src[c.Lo:c.Hi])
		}
	}
	sc.stack = stack[:0]
	return opened
}

// farView is a walk's copy of its Far's Layout and of the other rank's tree
// it is in, kept in memory for far cells only, so that the registers stay
// with the local walk. The walk names cell i of that tree off+i, past its own
// indices, so the cells link as in their tree; it is through one branch
// before it enters the next.
type farView struct {
	far          Far
	top, cells   []Cell
	src          []gravity.Source
	route        []int32
	n, base, off int32
}

// EvalBucket applies the scratch's interaction list to every body of the
// bucket, scattering results by original body ID. It touches only the
// scratch, the read-only body array and the bucket's disjoint entries of
// the output arrays, so buckets may be evaluated concurrently.
func (t *Tree) EvalBucket(bucket *Cell, eps float64, sc *BucketScratch, acc []vec.V3, pot []float64) {
	ns := bucket.Hi - bucket.Lo
	sc.grow(ns)
	for j, s := range t.src[bucket.Lo:bucket.Hi] {
		sc.sx[j], sc.sy[j], sc.sz[j] = s.Pos[0], s.Pos[1], s.Pos[2]
	}
	ev := gravity.Evaluator{Eps: eps}
	ev.Eval(&sc.List, sc.sx, sc.sy, sc.sz, sc.ax, sc.ay, sc.az, sc.pp)
	for j := 0; j < ns; j++ {
		id := t.Bodies[bucket.Lo+j].ID
		acc[id] = vec.V3{sc.ax[j], sc.ay[j], sc.az[j]}
		pot[id] = sc.pp[j]
	}
}

// AccelAllGrouped evaluates the field at every body with the grouped walk,
// fanning sink groups out over the given number of host workers (par.For;
// workers < 1 means GOMAXPROCS). Each group writes a disjoint slice of the
// output and its stats are merged in group order, so the result — including
// every floating-point bit — is identical for any worker count. The bool and
// gravity.Precision arguments are read by nothing: the kernels have one
// reciprocal square root and one arithmetic; they are retained for bench/
// (see gravity.Precision).
func (t *Tree) AccelAllGrouped(theta, eps float64, _ bool, _ gravity.Precision, workers int) ([]vec.V3, []float64, WalkStats) {
	h0 := t.o.HostNow()
	n := len(t.Bodies)
	acc := make([]vec.V3, n)
	pot := make([]float64, n)
	groups := t.Groups()
	stats := make([]WalkStats, len(groups))
	scs := make([]BucketScratch, par.Width(workers, len(groups)))
	par.For(len(groups), workers, func(w, i int) {
		b, sc := groups[i], &scs[w]
		mac := NewGroupMAC(b, theta)
		sc.Reset()
		opened := t.GatherList(key.Root, &mac, sc)
		ns := b.Hi - b.Lo
		stats[i] = WalkStats{
			CellsOpened:      opened,
			CellInteractions: ns * len(sc.List.Cells),
			BodyInteractions: ns*sc.List.Bodies() - ns,
		}
		t.EvalBucket(b, eps, sc, acc, pot)
	})
	var total WalkStats
	for i := range stats {
		total.CellInteractions += stats[i].CellInteractions
		total.BodyInteractions += stats[i].BodyInteractions
		total.CellsOpened += stats[i].CellsOpened
	}
	if t.o != nil {
		reg := t.o.Reg
		reg.Counter("htree.walk.buckets").Add(int64(len(groups)))
		reg.Counter("htree.walk.cells_opened").Add(int64(total.CellsOpened))
		reg.Counter("htree.walk.cell_interactions").Add(int64(total.CellInteractions))
		reg.Counter("htree.walk.body_interactions").Add(int64(total.BodyInteractions))
		t.o.HostSpan(obs.HostWalks, "htree", "grouped-walk", h0, t.o.HostNow())
	}
	return acc, pot, total
}
