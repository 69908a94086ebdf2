package core

import (
	"slices"

	"spacesim/internal/gravity"
	"spacesim/internal/htree"
	"spacesim/internal/key"
	"spacesim/internal/mp"
	"spacesim/internal/obs"
	"spacesim/internal/vec"
)

// The distributed tree. Each rank owns a contiguous Morton-key range and
// builds a local oct-tree over it. Cells entirely inside one rank's range
// are "complete"; the maximal complete cells ("branch" cells) tile key
// space and are replicated everywhere together with the "fill" cells built
// above them by combining multipoles — so every rank can start a traversal
// at the root with globally correct moments. Opening a remote branch (or
// its descendants) requires the owner's data, fetched through the ABM
// layer using the global key name space: "a hash table is used in order to
// translate the key into a pointer ... this level of indirection can also
// be used to catch accesses to non-local data" (Section 4.2). Here the key
// is resolved once, when a reply names the owner's cell, and a top branch with
// nothing resident below it catches the non-local access. Every cell is an
// htree.Cell, walked where it lies, in one index space (htree.Far): the local
// tree's, then the top's, then one per resident branch of another rank.

// cellWireBytes is the accounted wire size of one cell in the branch
// exchange and in fetch replies, whatever Go struct carries it.
const cellWireBytes = 104

// hFetch is the ABM handler id for cell-expansion requests.
const hFetch = 1

// topTree is the replicated top of the tree, laid out by buildTop: root at
// index 0, fills and every rank's branches, the daughters of one parent side
// by side in ascending octant order, each fill linked to its daughters.
type topTree struct {
	cells []htree.Cell
	owner []int32 // owning rank of each cell; -1 for a fill
}

// DTree is the per-rank view of the distributed tree.
type DTree struct {
	r   *mp.Rank
	abm *mp.ABM
	opt Options

	splitters []key.K

	local  *htree.Tree // may be nil when the rank holds no bodies
	nLocal int32       // the local tree's NumCells: where the top's indices start

	// The top is one array for the whole world and nobody writes it. route is
	// this rank's overlay on it, the index a walk takes each top cell at
	// (htree.Far): for a branch this rank owns, its local cell; for another
	// rank's branch that a reply has named, the index of that reply; otherwise
	// the cell itself.
	top   *topTree
	route []int32
	// The rank's fetch state, kept from step to step (fetchArena).
	*fetchArena

	// counters
	fetches int64

	// metric handles, resolved once at build time (all nil-safe).
	ro                       *obs.RankObs
	o                        *obs.Obs
	cFetch, cDedup, cBuckets *obs.Counter
	hListCells, hListBodies  *obs.Histogram
}

// fetchArena is the rank's fetch state, the cell counts its replies are
// priced by and the scratch of its walks' lists. Run keeps one per rank next
// to its build arena, so a steady step grows none of it; a DTree built
// without one (BuildDistributed) starts from an empty arena. It is rank
// state, one goroutine at a time.
type fetchArena struct {
	// replies holds the other ranks' branches this rank asked for, in
	// arrival order: reply k is index base()+k of a walk.
	replies []fetchReply

	// asked[j] is set once this rank has asked for top cell j, the one
	// request per branch however many groups open it. Group after group,
	// opens holds the branches each group's walk opens and frontier the top
	// cells where its top walk stopped, in pop order: j, or ^(nLocal+j) for
	// one it accepted (walkTop); stack is the top walks' scratch.
	asked    []bool
	opens    []int32
	frontier []int32
	stack    []int32

	// below[i] counts the cells below local cell i (branches), the price of
	// a reply for it.
	below []int32

	// lists[k] is the list scratch of goroutine k of the loop that gathers
	// and evaluates a run of groups (evalRun).
	lists []*htree.BucketScratch
}

// resetCaches drops the transient per-evaluation state — the replies, the
// routes to them, the requests and the top walks' records — keeping their
// storage: the bound on what a rank holds of the others' trees.
func (dt *DTree) resetCaches() {
	clear(dt.replies) // release the other ranks' trees
	dt.replies, dt.opens, dt.frontier = dt.replies[:0], dt.opens[:0], dt.frontier[:0]
	dt.asked = slices.Grow(dt.asked[:0], len(dt.top.cells))[:len(dt.top.cells)]
	clear(dt.asked)
	for j, o := range dt.top.owner {
		dt.route[j] = dt.nLocal + int32(j)
		if int(o) == dt.r.ID() {
			dt.route[j] = dt.local.Find(dt.top.cells[j].Key)
		}
	}
}

// requestBranch asks the owner of top branch j for the subtree below it,
// unless this rank has asked already. The reply, run during a Poll, appends
// the owner's cell by reference to the rank's table and routes j to it.
func (dt *DTree) requestBranch(j int32, st *TraversalStats) {
	if dt.asked[j] {
		dt.cDedup.Inc()
		return
	}
	dt.asked[j] = true
	st.Fetches++
	dt.fetches++
	dt.cFetch.Inc()
	// Trace the fetch as an async span in virtual time: issued now, resolved
	// when the reply continuation runs (both points on the rank goroutine).
	fid := dt.fetches
	t0 := dt.r.Clock()
	k := dt.top.cells[j].Key
	lo, _ := k.BodyKeyRange()
	dt.abm.Request(Owner(dt.splitters, lo), hFetch, k, 8, func(resp any) {
		dt.ro.Async("fetch", "fetch", fid, t0, dt.r.Clock())
		dt.route[j] = dt.base() + int32(len(dt.replies))
		dt.replies = append(dt.replies, resp.(fetchReply))
	})
}

// base is the index of the first reply, past the local tree and the top.
func (dt *DTree) base() int32 { return dt.nLocal + int32(len(dt.top.cells)) }

// BuildDistributed constructs the per-rank tree over the (already
// decomposed, key-sorted) local bodies, and performs the branch exchange.
func BuildDistributed(r *mp.Rank, bodies []Body, splitters []key.K, boxLo vec.V3, boxSize float64, opt Options) *DTree {
	return buildDistributed(r, bodies, splitters, boxLo, boxSize, opt, &fetchArena{})
}

// buildDistributed is BuildDistributed on the rank's fetch arena fa.
func buildDistributed(r *mp.Rank, bodies []Body, splitters []key.K, boxLo vec.V3, boxSize float64, opt Options, fa *fetchArena) *DTree {
	opt = opt.withDefaults()
	dt := &DTree{r: r, opt: opt, splitters: splitters, fetchArena: fa}
	dt.abm = mp.NewABM(r)
	dt.abm.Handle(hFetch, dt.serveFetch)

	// Resolve metric handles once; hot paths use the pointers directly.
	dt.ro = r.Obs()
	dt.o = r.WorldObs()
	reg := r.WorldObs().Reg
	dt.cFetch = reg.Counter("core.fetch.requests")
	dt.cDedup = reg.Counter("core.fetch.dedup_hits")
	dt.cBuckets = reg.Counter("core.buckets")
	dt.hListCells = reg.Histogram("core.list.cells_len")
	dt.hListBodies = reg.Histogram("core.list.bodies_len")

	defer r.Span("phase", "tree-build")()

	if len(bodies) > 0 {
		endConstruct := r.Span("phase", "tree-construct")
		arena := opt.BuildArena
		if arena == nil {
			arena = &htree.Arena{}
		}
		pos, mass := arena.PosMassScratch(len(bodies))
		for i := range bodies {
			pos[i] = bodies[i].Pos
			mass[i] = bodies[i].Mass
		}
		tr, err := htree.Build(pos, mass, htree.Options{
			MaxLeaf: opt.MaxLeaf, BoxLo: boxLo, BoxSize: boxSize,
			// Split domain-straddling cells so every leaf is complete and
			// the branch cells exactly tile this rank's key range.
			ForceSplit: func(k key.K) bool { return !dt.complete(k) },
			Arena:      arena,
			Obs:        dt.o,
		})
		if err != nil {
			panic("core: local tree build: " + err.Error())
		}
		dt.local, dt.nLocal = tr, int32(tr.NumCells())
		// Charge tree construction: key generation + sort happened in
		// Decompose; the build itself is ~O(n log n) light work.
		n := float64(len(bodies))
		r.Charge(30*n, 0.4, 120*n)
		endConstruct()
	}

	// One rank's tree-merge span is long (it built the world's top), the rest short.
	endMerge := r.Span("phase", "tree-merge")
	mine := dt.branches()
	dt.top = allgatherOnce(r, mine, int64(len(mine)*cellWireBytes), func(branches [][]htree.Cell) *topTree {
		top := buildTop(branches)
		reg.Counter("core.top.builds").Inc()
		reg.Counter("core.top.cells").Add(int64(len(top.cells)))
		return top
	})
	dt.route = make([]int32, len(dt.top.cells))
	dt.resetCaches()
	endMerge()
	return dt
}

// complete reports whether cell k lies entirely within this rank's range:
// its first and last body keys both have this rank as Owner.
func (dt *DTree) complete(k key.K) bool {
	lo, hi := k.BodyKeyRange() // hi wraps to 0 at the top of key space
	return Owner(dt.splitters, lo) == dt.r.ID() && Owner(dt.splitters, hi-1) == dt.r.ID()
}

// branches returns this rank's maximal complete cells, bare, and counts the
// cells below every local cell into below.
func (dt *DTree) branches() []htree.Cell {
	if dt.local == nil {
		return nil
	}
	dt.below = slices.Grow(dt.below[:0], int(dt.nLocal))[:dt.nLocal]
	var out []htree.Cell
	var walk func(i int32, inBranch bool) int32
	walk = func(i int32, inBranch bool) int32 {
		c := dt.local.At(i)
		if !inBranch && dt.complete(c.Key) {
			out = append(out, c.Bare())
			inBranch = true
		}
		var kids [8]int32
		n := int32(0)
		for _, d := range c.Daughters(i, kids[:0]) {
			n += 1 + walk(d, inBranch)
		}
		dt.below[i] = n
		return n
	}
	walk(dt.local.Find(key.Root), false)
	return out
}

// buildTop lays out the replicated top of the tree from every rank's branch
// cells, indexed by rank, and builds the fill cells above them, so the top is
// globally consistent. It is a pure function of its input and runs once per
// branch exchange for the whole world (see allgatherOnce). Ranks own
// ascending key ranges and list their branches depth first, so the branches
// come in ascending key-range order and the ancestors one adds are those that
// do not contain its predecessor. The top is in ascending key order — level
// by level, root first, siblings side by side by octant — and within a level
// branches and new ancestors already arrive that way, so two sweeps (count per
// level, then place) sort it without comparing keys.
func buildTop(branches [][]htree.Cell) *topTree {
	sweep := func(visit func(level int, c htree.Cell, owner int32)) {
		prev := key.Invalid
		for p, g := range branches {
			for _, b := range g {
				level := b.Key.Level()
				for a, l := b.Key, level; a != key.Root; {
					a, l = a.Parent(), l-1
					if a.Contains(prev) {
						break
					}
					visit(l, htree.Cell{Key: a}, -1)
				}
				visit(level, b, int32(p))
				prev = b.Key
			}
		}
	}
	var next [key.MaxLevel + 2]int32 // next[l]: where level l's next cell goes
	sweep(func(level int, _ htree.Cell, _ int32) { next[level+1]++ })
	for l := 1; l < len(next); l++ {
		next[l] += next[l-1]
	}
	n := next[len(next)-1]
	top := &topTree{cells: make([]htree.Cell, n), owner: make([]int32, n)}
	sweep(func(level int, c htree.Cell, owner int32) {
		top.cells[next[level]], top.owner[next[level]] = c, owner
		next[level]++
	})

	// Fills bottom-up. Deeper keys are larger, so in descending order every
	// child is finished before its parent and the sibling groups come up in
	// the order of their parents: a fill's children are the cells just below
	// end that name it as parent. Combining them in ascending octant order
	// keeps every fill moment bit-reproducible.
	cells, end := top.cells, len(top.cells)
	for i := end - 1; i >= 0; i-- {
		if top.owner[i] != -1 {
			continue
		}
		f := &cells[i]
		lo := end
		for lo > i+1 && cells[lo-1].Key.Parent() == f.Key {
			lo--
		}
		kids := cells[lo:end]
		end = lo
		var mps [8]gravity.Multipole
		for j := range kids {
			mps[j] = kids[j].Mp
			f.N += kids[j].N
			f.ChildMask |= 1 << uint(kids[j].Key.Octant())
		}
		f.Link(int32(i), int32(lo))
		f.Mp = gravity.Combine(mps[:len(kids)]...)
		for j := range kids {
			if b := kids[j].Mp.COM.Dist(f.Mp.COM) + kids[j].Bmax; b > f.Bmax {
				f.Bmax = b
			}
		}
	}
	if end > 1 {
		panic("core: branch cells do not tile key space")
	}
	return top
}

// fetchReply is the answer to a branch request: cell i of the owner's local
// tree t, by reference, walked in t by the requester. The owner builds t again
// only after the next Decompose's collectives, which a requester enters only
// once its evaluation — its last run of groups included — is over (DESIGN.md,
// "What the world shares").
type fetchReply struct {
	t *htree.Tree
	i int32
}

// serveFetch answers a branch request, charging the wire size of what it
// refers to: every cell below the branch (below), sent bare, and every body.
func (dt *DTree) serveFetch(src int, req any) (any, int64) {
	k := req.(key.K)
	if dt.local == nil {
		panic("core: fetch request on rank without a tree")
	}
	i := dt.local.Find(k)
	if i < 0 {
		panic("core: fetch request for unknown cell " + k.String())
	}
	c := dt.local.At(i)
	bytes := int64(cellWireBytes*int(dt.below[i]) + 32*(c.Hi-c.Lo))
	return fetchReply{dt.local, i}, bytes
}

// Fetches returns the number of branch requests issued.
func (dt *DTree) Fetches() int64 { return dt.fetches }
