package core

import (
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
// is resolved once, when a cell enters the slab below; after that a cell is
// its slab index, and a missing child link catches the non-local access.

// cellInfo is the replicated metadata of a non-local (or fill) cell, and
// the wire form of a cell in the branch exchange and in fetch replies.
type cellInfo struct {
	Key       key.K
	Mp        gravity.Multipole
	Bmax      float64
	N         int
	Leaf      bool
	ChildMask uint8
	Owner     int // owning rank; -1 for fill cells (global knowledge)
}

// cellInfoWireBytes is the accounted wire size of one cellInfo.
const cellInfoWireBytes = 104

// cell is one slab entry: the metadata plus what is resident below it.
type cell struct {
	cellInfo
	resident
}

// resident is what one rank holds below a cell.
type resident struct {
	// child is the slab index of the first resident daughter; the others
	// follow in ascending octant order. 0 (the root, nobody's daughter)
	// means they are not resident.
	child int32
	// bodies are the fetched bodies of a remote leaf; nil until they arrive.
	bodies []gravity.Source
}

// fetchReply answers an expansion request for one remote cell.
type fetchReply struct {
	Children []cellInfo       // for internal cells
	Bodies   []gravity.Source // for leaf cells
}

// hFetch is the ABM handler id for cell-expansion requests.
const hFetch = 1

// DTree is the per-rank view of the distributed tree.
type DTree struct {
	r   *mp.Rank
	abm *mp.ABM
	opt Options

	splitters []key.K

	local *htree.Tree // may be nil when the rank holds no bodies

	// Every cell this rank knows besides its own tree has a slab index. Those
	// below len(top) name the replicated top laid out by buildTop: root at
	// index 0, fills and every rank's branches, the children of one parent
	// side by side in ascending octant order. The top is one array for the
	// whole world and nobody writes it; what a fetch reply makes resident
	// below a branch goes on over, this rank's overlay, one entry per top
	// cell. Index len(top)+j names cells[j], the rank's own slab: a reply
	// appends its children, which may move the slab, so never hold a pointer
	// into it across an ABM Poll while a request is outstanding. Once none is,
	// nothing writes slab or overlay until the next evaluation resets them,
	// and the eval pool reads them from its own goroutines (pass 2).
	top   []cell
	over  []resident
	cells []cell

	// fetching tracks in-flight expansion requests: slab index -> walkers
	// waiting on the reply. It deduplicates concurrent requests: whichever
	// walker asks first triggers the one ABM request, later walkers for the
	// same cell just join the list.
	fetching map[int32][]*bucketWalker

	// counting tallies local subtrees for walks that have given up their list.
	counting htree.BucketScratch

	// counters
	fetches int64

	// metric handles, resolved once at build time (all nil-safe).
	ro                                    *obs.RankObs
	o                                     *obs.Obs
	cFetch, cDedup, cCacheHit, cCacheMiss *obs.Counter
	cListCells, cListBodies, cBuckets     *obs.Counter
	cWalkDirect, cWalkSecond              *obs.Counter
	gListCellsMax, gListBodiesMax         *obs.Gauge
	hListCells, hListBodies               *obs.Histogram
	cPoolBusyNS, cPoolWallNS, cPoolJobs   *obs.Counter
	cPoolInline                           *obs.Counter
}

// at resolves slab index i to the cell's metadata, in the shared top or the
// rank's own slab, and to where this rank keeps what is resident below it.
func (dt *DTree) at(i int32) (*cellInfo, *resident) {
	if n := int32(len(dt.top)); i >= n {
		c := &dt.cells[i-n]
		return &c.cellInfo, &c.resident
	}
	c := &dt.top[i]
	if c.Owner >= 0 {
		return &c.cellInfo, &dt.over[i]
	}
	return &c.cellInfo, &c.resident // a fill: its daughters are in the top too
}

// resetCaches drops the transient per-evaluation state: every cell a fetch
// reply appended, and the child links and bodies replies hung on the overlay.
// The second pass needs all that one evaluation fetched resident; none of it
// survives into the next, which is the bound on the slab.
func (dt *DTree) resetCaches() {
	clear(dt.cells) // release the fetched bodies they point at
	dt.cells = dt.cells[:0]
	clear(dt.over)
}

// requestCell asks the owner of slab cell i for its expansion on behalf of
// walker w, calling resume for every waiting walker when the reply has
// arrived during a Poll and is resident — a leaf's bodies, or an internal
// cell's children appended to the slab, linked from the cell's resident entry
// — so later walkers are served locally.
func (dt *DTree) requestCell(i int32, st *TraversalStats, w *bucketWalker, resume func(*bucketWalker, int32)) {
	waiters, inFlight := dt.fetching[i]
	dt.fetching[i] = append(waiters, w)
	if inFlight {
		// Another walker already asked for this cell; no new request goes out.
		dt.cDedup.Inc()
		return
	}
	st.Fetches++
	dt.fetches++
	dt.cFetch.Inc()
	// Trace the fetch as an async span in virtual time: issued now, resolved
	// when the reply continuation runs (both points on the rank goroutine).
	fid := dt.fetches
	t0 := dt.r.Clock()
	c, _ := dt.at(i)
	dt.abm.Request(c.Owner, hFetch, c.Key, 8, func(resp any) {
		reply := resp.(fetchReply)
		dt.ro.Async("fetch", "fetch", fid, t0, dt.r.Clock())
		if _, res := dt.at(i); reply.Bodies != nil {
			res.bodies = reply.Bodies
		} else {
			if dt.cells == nil && dt.local != nil {
				// What a rank opens of its neighbours goes with its domain's
				// surface; a rank that opens nothing (one rank) allocates nothing.
				dt.cells = make([]cell, 0, 2*dt.local.NumCells())
			}
			res.child = int32(len(dt.top) + len(dt.cells)) // before the append moves res
			for _, c := range reply.Children {
				dt.cells = append(dt.cells, cell{cellInfo: c})
			}
		}
		ws := dt.fetching[i]
		delete(dt.fetching, i)
		for _, w := range ws {
			resume(w, i)
		}
	})
}

// BuildDistributed constructs the per-rank tree over the (already
// decomposed, key-sorted) local bodies, and performs the branch exchange.
func BuildDistributed(r *mp.Rank, bodies []Body, splitters []key.K, boxLo vec.V3, boxSize float64, opt Options) *DTree {
	opt = opt.withDefaults()
	dt := &DTree{
		r: r, opt: opt,
		splitters: splitters,
		fetching:  map[int32][]*bucketWalker{},
		counting:  htree.BucketScratch{CountOnly: true},
	}
	dt.abm = mp.NewABM(r)
	dt.abm.Handle(hFetch, dt.serveFetch)

	// Resolve metric handles once; hot paths use the pointers directly.
	dt.ro = r.Obs()
	dt.o = r.WorldObs()
	reg := r.Metrics()
	dt.cFetch = reg.Counter("core.fetch.requests")
	dt.cDedup = reg.Counter("core.fetch.dedup_hits")
	dt.cCacheHit = reg.Counter("core.bodycache.hits")
	dt.cCacheMiss = reg.Counter("core.bodycache.misses")
	dt.cListCells = reg.Counter("core.list.cells")
	dt.cListBodies = reg.Counter("core.list.bodies")
	dt.cBuckets = reg.Counter("core.buckets")
	dt.cWalkDirect = reg.Counter("core.walk.direct")
	dt.cWalkSecond = reg.Counter("core.walk.second_pass")
	dt.gListCellsMax = reg.Gauge("core.list.cells_max")
	dt.gListBodiesMax = reg.Gauge("core.list.bodies_max")
	dt.hListCells = reg.Histogram("core.list.cells_len")
	dt.hListBodies = reg.Histogram("core.list.bodies_len")
	dt.cPoolBusyNS = reg.Counter("core.pool.busy_ns")
	dt.cPoolWallNS = reg.Counter("core.pool.wall_ns")
	dt.cPoolJobs = reg.Counter("core.pool.jobs")
	dt.cPoolInline = reg.Counter("core.pool.inline_jobs")

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
			Workers:    opt.Workers,
			Arena:      arena,
			Obs:        dt.o,
		})
		if err != nil {
			panic("core: local tree build: " + err.Error())
		}
		dt.local = tr
		// Charge tree construction: key generation + sort happened in
		// Decompose; the build itself is ~O(n log n) light work.
		n := float64(len(bodies))
		r.Charge(30*n, 0.4, 120*n)
		endConstruct()
	}

	// One rank's tree-merge span is long (it built the world's top), the rest short.
	endMerge := r.Span("phase", "tree-merge")
	mine := dt.branches()
	dt.top = allgatherOnce(r, mine, int64(len(mine)*cellInfoWireBytes), func(branches [][]cellInfo) []cell {
		top := buildTop(branches)
		reg.Counter("core.top.builds").Inc()
		reg.Counter("core.top.cells").Add(int64(len(top)))
		return top
	})
	dt.over = make([]resident, len(dt.top))
	endMerge()
	return dt
}

// keyRange returns this rank's key interval [lo, hi); hi==0 means +inf.
func (dt *DTree) keyRange() (lo, hi key.K) {
	p := dt.r.ID()
	if len(dt.splitters) == 0 {
		return 0, 0
	}
	if p > 0 {
		lo = dt.splitters[p-1]
	}
	if p < len(dt.splitters) {
		hi = dt.splitters[p]
	}
	return lo, hi
}

// complete reports whether cell k lies entirely within this rank's range.
func (dt *DTree) complete(k key.K) bool {
	if dt.r.Size() == 1 {
		return true
	}
	clo, chi := k.BodyKeyRange()
	rlo, rhi := dt.keyRange()
	if clo < rlo {
		return false
	}
	if rhi == 0 { // owner range extends to the top of key space
		return true
	}
	if chi <= clo { // cell range wraps: extends to the top of key space
		return false
	}
	return chi <= rhi
}

// branches returns this rank's maximal complete cells.
func (dt *DTree) branches() []cellInfo {
	if dt.local == nil {
		return nil
	}
	var out []cellInfo
	var walk func(k key.K)
	walk = func(k key.K) {
		c, ok := dt.local.Cell(k)
		if !ok {
			return
		}
		if dt.complete(k) {
			out = append(out, cellInfo{
				Key: k, Mp: c.Mp, Bmax: c.Bmax, N: c.N,
				Leaf: c.Leaf, ChildMask: c.ChildMask, Owner: dt.r.ID(),
			})
			return
		}
		for oct := 0; oct < 8; oct++ {
			if c.ChildMask&(1<<uint(oct)) != 0 {
				walk(k.Child(oct))
			}
		}
	}
	walk(key.Root)
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
func buildTop(branches [][]cellInfo) []cell {
	sweep := func(visit func(level int, c cellInfo)) {
		prev := key.Invalid
		for _, g := range branches {
			for _, b := range g {
				level := b.Key.Level()
				for a, l := b.Key, level; a != key.Root; {
					a, l = a.Parent(), l-1
					if a.Contains(prev) {
						break
					}
					visit(l, cellInfo{Key: a, Owner: -1})
				}
				visit(level, b)
				prev = b.Key
			}
		}
	}
	var next [key.MaxLevel + 2]int32 // next[l]: where level l's next cell goes
	sweep(func(level int, _ cellInfo) { next[level+1]++ })
	for l := 1; l < len(next); l++ {
		next[l] += next[l-1]
	}
	top := make([]cell, next[len(next)-1])
	sweep(func(level int, c cellInfo) {
		top[next[level]].cellInfo = c
		next[level]++
	})

	// Fills bottom-up. Deeper keys are larger, so in descending order every
	// child is finished before its parent and the sibling groups come up in
	// the order of their parents: a fill's children are the cells just below
	// end that name it as parent. Combining them in ascending octant order
	// keeps every fill moment bit-reproducible.
	end := len(top)
	for i := end - 1; i >= 0; i-- {
		f := &top[i]
		if f.Owner != -1 {
			continue
		}
		lo := end
		for lo > i+1 && top[lo-1].Key.Parent() == f.Key {
			lo--
		}
		kids := top[lo:end]
		f.child, end = int32(lo), lo
		var mps [8]gravity.Multipole
		for j := range kids {
			mps[j] = kids[j].Mp
			f.N += kids[j].N
			f.ChildMask |= 1 << uint(kids[j].Key.Octant())
		}
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

// serveFetch answers an expansion request: children of an internal cell,
// or the bodies of a leaf.
func (dt *DTree) serveFetch(src int, req any) (any, int64) {
	k := req.(key.K)
	if dt.local == nil {
		panic("core: fetch request on rank without a tree")
	}
	c, ok := dt.local.Cell(k)
	if !ok {
		panic("core: fetch request for unknown cell " + k.String())
	}
	if c.Leaf {
		bodies := dt.local.LeafBodies(c)
		return fetchReply{Bodies: bodies}, int64(32 * len(bodies))
	}
	var children []cellInfo
	for oct := 0; oct < 8; oct++ {
		if c.ChildMask&(1<<uint(oct)) == 0 {
			continue
		}
		ck := k.Child(oct)
		cc, ok := dt.local.Cell(ck)
		if !ok {
			panic("core: childmask/hash mismatch")
		}
		children = append(children, cellInfo{
			Key: ck, Mp: cc.Mp, Bmax: cc.Bmax, N: cc.N,
			Leaf: cc.Leaf, ChildMask: cc.ChildMask, Owner: dt.r.ID(),
		})
	}
	return fetchReply{Children: children}, int64(cellInfoWireBytes * len(children))
}

// Fetches returns the number of remote expansion requests issued.
func (dt *DTree) Fetches() int64 { return dt.fetches }
