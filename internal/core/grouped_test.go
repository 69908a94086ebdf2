package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"spacesim/internal/gravity"
	"spacesim/internal/gravity/seedref"
	"spacesim/internal/htree"
	"spacesim/internal/key"
	"spacesim/internal/mp"
	"spacesim/internal/par"
	"spacesim/internal/vec"
)

// forcesWith runs one collective force evaluation over p ranks and returns
// accelerations and potentials indexed by global body ID.
func forcesWith(ics []Body, p int, opt Options) ([]vec.V3, []float64) {
	acc, pot, _ := forcesWithEngine(ics, p, opt, mp.RunOptions{})
	return acc, pot
}

// forcesWithEngine is forcesWith under chosen message-layer options, also
// returning the interactions the ranks counted, summed over the world.
func forcesWithEngine(ics []Body, p int, opt Options, ro mp.RunOptions) ([]vec.V3, []float64, int64) {
	n := len(ics)
	acc := make([]vec.V3, n)
	pot := make([]float64, n)
	var interactions atomic.Int64
	mp.RunWith(testCluster(), p, ro, func(r *mp.Rank) {
		lo, hi := n*r.ID()/p, n*(r.ID()+1)/p
		local := append([]Body(nil), ics[lo:hi]...)
		bodies, splitters, boxLo, boxSize := Decompose(r, local)
		dt := BuildDistributed(r, bodies, splitters, boxLo, boxSize, opt)
		a, ph, st := dt.ComputeForces(bodies)
		for i := range bodies {
			acc[bodies[i].ID] = a[i]
			pot[bodies[i].ID] = ph[i]
		}
		interactions.Add(st.BodyInteractions + st.CellInteractions)
	})
	return acc, pot, interactions.Load()
}

// The engine must stay inside the per-body error regime: its bucket-level
// MAC is strictly more conservative than the per-body one (the opening
// radius is widened by the bucket's bounding sphere), so its error versus
// direct summation must not exceed that of the serial per-body walk
// htree.Tree.AccelAll at the same theta, on one rank and on several.
func TestGroupedWithinPerBodyErrorRegime(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	const n = 600
	ics := PlummerSphere(rng, n, 1.0)
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i, b := range ics {
		pos[i], mass[i] = b.Pos, b.Mass
	}
	eps := 0.02
	ref, _ := gravity.Direct(pos, mass, eps)
	tr, err := htree.Build(pos, mass, htree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	perBody, _, _ := tr.AccelAll(0.5, eps)
	rmsP := rmsAccErr(perBody, ref)

	for _, p := range []int{1, 3} {
		grouped, _ := forcesWith(ics, p, Options{Theta: 0.5, Eps: eps})
		rmsG := rmsAccErr(grouped, ref)
		if rmsG > rmsP*1.05+1e-12 {
			t.Fatalf("p=%d: grouped rms error %g exceeds per-body %g", p, rmsG, rmsP)
		}
		if d := rmsAccErr(grouped, perBody); d > 2*rmsP+1e-12 {
			t.Fatalf("p=%d: grouped vs per-body rms %g (per-body vs direct %g)", p, d, rmsP)
		}
	}
}

// There is one bucket walker: on a single rank the distributed engine hands
// the whole tree to htree's GatherList and EvalBucket, so its forces equal
// htree.Tree.AccelAllGrouped on the same box and bucket size bit for bit.
func TestOneRankMatchesSerialGroupedWalk(t *testing.T) {
	ics := PlummerSphere(rand.New(rand.NewSource(35)), 3000, 1.0)
	const theta, eps = 0.6, 0.02
	mp.Run(testCluster(), 1, func(r *mp.Rank) {
		bodies, splitters, boxLo, boxSize := Decompose(r, append([]Body(nil), ics...))
		opt := Options{Theta: theta, Eps: eps}
		acc, pot, st := BuildDistributed(r, bodies, splitters, boxLo, boxSize, opt).ComputeForces(bodies)

		pos := make([]vec.V3, len(bodies))
		mass := make([]float64, len(bodies))
		for i, b := range bodies {
			pos[i], mass[i] = b.Pos, b.Mass
		}
		tr, err := htree.Build(pos, mass, htree.Options{MaxLeaf: opt.withDefaults().MaxLeaf, BoxLo: boxLo, BoxSize: boxSize})
		if err != nil {
			t.Error(err)
			return
		}
		wantAcc, wantPot, ws := tr.AccelAllGrouped(theta, eps, false, gravity.Float64, 1)
		for i := range acc {
			if acc[i] != wantAcc[i] || pot[i] != wantPot[i] {
				t.Errorf("body %d: engine (%v, %v), serial walk (%v, %v)", i, acc[i], pot[i], wantAcc[i], wantPot[i])
				return
			}
		}
		if st.BodyInteractions != int64(ws.BodyInteractions) || st.CellInteractions != int64(ws.CellInteractions) {
			t.Errorf("engine counted %d body + %d cell interactions, serial walk %d + %d",
				st.BodyInteractions, st.CellInteractions, ws.BodyInteractions, ws.CellInteractions)
		}
	})
}

// Results must be bit-identical for any Workers count, including on
// multiple ranks where fetch reply timing decides when a walk resumes (every
// list is gathered in tree order, whatever the timing).
func TestGroupedWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ics := PlummerSphere(rng, 500, 1.0)
	for _, p := range []int{1, 3} {
		var acc1 []vec.V3
		var pot1 []float64
		for _, workers := range []int{1, 2, 5, 8} {
			acc, pot := forcesWith(ics, p, Options{Theta: 0.6, Eps: 0.02, Workers: workers})
			if workers == 1 {
				acc1, pot1 = acc, pot
				continue
			}
			for i := range acc1 {
				if acc[i] != acc1[i] || pot[i] != pot1[i] {
					t.Fatalf("p=%d workers=%d: body %d differs: (%v, %v) vs (%v, %v)",
						p, workers, i, acc[i], pot[i], acc1[i], pot1[i])
				}
			}
		}
	}

	// Hundreds of groups on one rank, gathered and evaluated by one loop two
	// wide on one worker and nine wide on eight.
	many := PlummerSphere(rand.New(rand.NewSource(45)), 3000, 1.0)
	var accW [2][]vec.V3
	var potW [2][]float64
	for i, workers := range []int{1, 8} {
		accW[i], potW[i] = forcesWith(many, 1, Options{Theta: 0.6, Eps: 0.02, Workers: workers})
	}
	for i := range accW[0] {
		if accW[0][i] != accW[1][i] || potW[0][i] != potW[1][i] {
			t.Fatalf("one loop over groups: body %d differs: (%v, %v) on one worker, (%v, %v) on eight",
				i, accW[0][i], potW[0][i], accW[1][i], potW[1][i])
		}
	}

	// Replies in whatever order the ranks make them. Eight ranks with four
	// fifths of the bodies on rank 0 (the decomposition balances work, so the
	// first bodies in key order are made cheap): the light ranks are through
	// their protocols long before rank 0 stops asking them for branches, and
	// wait in Quiesce while rank 0 charges its groups. At any width of the scheduler's pool, whatever runs beside
	// whatever, every bit must come out the same — a digest recorded at
	// commit 623b44b, where the goroutine runtime was the first row, and
	// re-pinned once, with the kernels' arithmetic (ISSUE 24): the one that
	// still holds one walker per leaf. One walker per sink group has its own,
	// re-pinned when local leaves were tested like remote ones and groups
	// grew to 80 bodies.
	const n, p = 1600, 8
	ics = PlummerSphere(rng, n, 1.0)
	lo, size := htree.BoundingCube(positions(ics))
	sort.Slice(ics, func(i, j int) bool {
		return key.FromPosition(ics[i].Pos, lo, size) < key.FromPosition(ics[j].Pos, lo, size)
	})
	for i := range ics {
		ics[i].ID = int64(i)
		ics[i].Work = 1
		if i < n*4/5 {
			ics[i].Work = 1.0 / (4 * (p - 1)) // the first 4n/5 together weigh what n/5/(p-1) others do
		}
	}
	for _, pin := range []struct {
		leaves bool
		want   uint64
	}{{false, 0x8dbcfbd59c3d0b57}, {true, 0x6d2a84e5dd4e5441}} {
		if pin.leaves {
			leafGroups(t)
		}
		var acc1 []vec.V3
		var pot1 []float64
		for _, engineWorkers := range []int{0, 1, 4} {
			for _, workers := range []int{1, 2, 8} {
				acc, pot, _ := forcesWithEngine(ics, p, Options{Theta: 0.6, Eps: 0.02, Workers: workers},
					mp.RunOptions{Workers: engineWorkers})
				if acc1 == nil {
					acc1, pot1 = acc, pot
					continue
				}
				for i := range acc1 {
					if acc[i] != acc1[i] || pot[i] != pot1[i] {
						t.Fatalf("leaves=%v engine-workers=%d workers=%d: body %d differs: (%v, %v) vs (%v, %v)",
							pin.leaves, engineWorkers, workers, i, acc[i], pot[i], acc1[i], pot1[i])
					}
				}
			}
		}
		if d := digestForces(acc1, pot1); runtime.GOARCH == "amd64" && d != pin.want {
			t.Errorf("leaves=%v: force digest %#x, pinned %#x", pin.leaves, d, pin.want)
		}
	}
}

// walker returns the walker of sink group g, with a slot of its own.
func (dt *DTree) walker(g *htree.Cell) bucketWalker {
	return bucketWalker{dt: dt, cell: g, mac: htree.NewGroupMAC(g, dt.opt.Theta), slot: new(gatherSlot)}
}

func positions(bodies []Body) []vec.V3 {
	pos := make([]vec.V3, len(bodies))
	for i := range bodies {
		pos[i] = bodies[i].Pos
	}
	return pos
}

// regather walks group w again over what the rank holds — the engine's own
// gather, from the top's root by its route, on a fresh scratch — for tests to compare
// against, and returns the scratch. The branches it opens are appended to
// w's slot.
func (dt *DTree) regather(w *bucketWalker) *htree.BucketScratch {
	sc := new(htree.BucketScratch)
	sc.Push(dt.route[0])
	dt.local.Gather(&w.mac, sc, w)
	return sc
}

// opensOf returns the branches the groups' gathers opened, group after group
// in the groups' stack order (replay's), as evalGroups recorded them; it
// must be read before replay.
func opensOf(walkers []bucketWalker) []int32 {
	var out []int32
	for i := len(walkers) - 1; i >= 0; i-- {
		w := &walkers[i]
		out = append(out, w.slot.opens[w.lo:w.hi]...)
	}
	return out
}

// evaluate is ComputeForces, step by step: it returns the walkers and the
// branches they opened (opensOf) as well.
func (dt *DTree) evaluate(bodies []Body) (walkers []bucketWalker, opens []int32) {
	acc, pot := make([]vec.V3, len(bodies)), make([]float64, len(bodies))
	st := TraversalStats{PerBody: make([]float64, len(bodies))}
	dt.resetCaches()
	walkers = dt.evalGroups(acc, pot)
	opens = opensOf(walkers)
	dt.r.OneSlot(func() { dt.replay(walkers, &st) })
	return walkers, opens
}

// topOpens is the oracle of the opens a group's gather records: Gather
// itself, over routes of its own — this rank's branches to its local cells,
// every other top cell at itself — with a Far that appends to opens each
// other rank's bare branch the walk of group g reaches and does not accept,
// in the order it reaches them, and does not descend into it (it hands the
// walk a one-body stub tree instead of the owner's).
type topOpens struct {
	dt    *DTree
	route []int32
	stub  *htree.Tree
	opens []int32
}

func (o *topOpens) Layout() ([]htree.Cell, []int32) { return o.dt.top.cells, o.route }

func (o *topOpens) Open(j int32) (*htree.Tree, int32) {
	dt := o.dt
	if own := dt.top.owner[j]; own < 0 || int(own) == dt.r.ID() || len(dt.top.cells[j].Daughters(dt.nLocal+j, nil)) != 0 {
		panic(fmt.Sprintf("oracle opened top cell %d (%v), not another rank's bare branch", j, dt.top.cells[j].Key))
	}
	o.opens = append(o.opens, j)
	return o.stub, o.stub.Find(key.Root)
}

// opened returns the remote branches group g's walk opens, by the oracle.
func (o *topOpens) opened(g *htree.Cell) []int32 {
	dt := o.dt
	if o.route == nil {
		o.route = make([]int32, len(dt.top.cells))
		for j, own := range dt.top.owner {
			o.route[j] = dt.nLocal + int32(j)
			if int(own) == dt.r.ID() {
				o.route[j] = dt.local.Find(dt.top.cells[j].Key)
			}
		}
		stub, err := htree.Build([]vec.V3{{}}, []float64{1}, htree.Options{})
		if err != nil {
			panic(err)
		}
		o.stub = stub
	}
	o.opens = o.opens[:0]
	mac := htree.NewGroupMAC(g, dt.opt.Theta)
	var sc htree.BucketScratch
	sc.Push(o.route[0])
	dt.local.Gather(&mac, &sc, o)
	return o.opens
}

// What one evaluation asks for and records is dropped when the next one
// starts. resetCaches forgets the requests, the arrivals and the groups'
// opens, so a second evaluation on the same tree opens and fetches exactly
// the same branches and reproduces the forces bit for bit — into the same
// storage, which the rank's fetch arena keeps, as it does for the next tree
// built on it. None of it touches the replicated top, which is the world's,
// or the routes through it, fixed at the branch exchange: an evaluation
// leaves every bit of them as the branch exchange made them.
func TestCachesBoundedAcrossEvaluations(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const n = 600
	ics := PlummerSphere(rng, n, 1.0)
	const p = 4
	mp.Run(testCluster(), p, func(r *mp.Rank) {
		lo, hi := n*r.ID()/p, n*(r.ID()+1)/p
		local := append([]Body(nil), ics[lo:hi]...)
		bodies, splitters, boxLo, boxSize := Decompose(r, local)
		opt, fa := Options{Theta: 0.5, Eps: 0.02}, &fetchArena{}
		dt := buildDistributed(r, bodies, splitters, boxLo, boxSize, opt, fa)
		if len(dt.route) != len(dt.top.cells) || slices.Contains(dt.arrived, true) {
			t.Errorf("rank %d: after the branch exchange the overlay has %d entries for a top of %d, arrivals %v",
				r.ID(), len(dt.route), len(dt.top.cells), slices.Contains(dt.arrived, true))
		}
		for j, o := range dt.top.owner {
			want := dt.nLocal + int32(j)
			if int(o) == r.ID() {
				want = dt.local.Find(dt.top.cells[j].Key)
			}
			if dt.route[j] != want {
				t.Errorf("rank %d: top cell %v routed to %d, want %d", r.ID(), dt.top.cells[j].Key, dt.route[j], want)
				break
			}
		}
		route0 := append([]int32(nil), dt.route...)
		top0 := make([]cellBits, len(dt.top.cells))
		for i := range dt.top.cells {
			top0[i] = bitsOf(&dt.top.cells[i], int32(i), dt.top.owner[i])
		}
		unwritten := func(when string) {
			for i := range dt.top.cells {
				if got := bitsOf(&dt.top.cells[i], int32(i), dt.top.owner[i]); got != top0[i] {
					t.Errorf("rank %d: top cell %d (%v) changed %s", r.ID(), i, dt.top.cells[i].Key, when)
					return
				}
			}
			if !slices.Equal(dt.route, route0) {
				t.Errorf("rank %d: the routes changed %s", r.ID(), when)
			}
		}
		drained := func(when string) {
			if n := dt.abm.Outstanding(); n != 0 {
				t.Errorf("rank %d: %s %d requests outstanding", r.ID(), when, n)
			}
			for j, asked := range dt.asked {
				if asked != dt.arrived[j] {
					t.Errorf("rank %d: %s branch %v was asked for %v, arrived %v", r.ID(), when, dt.top.cells[j].Key, asked, dt.arrived[j])
					return
				}
			}
		}
		// The slots are the arena's, and a slot's opens stay in its storage
		// unless they outgrow it (which goroutine gathers which group varies).
		type store struct {
			slot  *gatherSlot
			first *int32
			cap   int
		}
		stores := func() []store {
			var out []store
			for _, sl := range dt.slots {
				st := store{slot: sl, cap: cap(sl.opens)}
				if st.cap > 0 {
					st.first = &sl.opens[:1][0]
				}
				out = append(out, st)
			}
			return out
		}
		sameStorage := func(when string, was []store, n int) {
			now := stores()
			if len(now) != len(was) {
				t.Errorf("rank %d: %s %d slots, %d before", r.ID(), when, len(now), len(was))
				return
			}
			total := 0
			for k := range now {
				total += len(now[k].slot.opens)
				if now[k].slot != was[k].slot || len(now[k].slot.opens) <= was[k].cap && now[k].first != was[k].first {
					t.Errorf("rank %d: %s slot %d's %d opens are not in the arena's storage", r.ID(), when, k, len(now[k].slot.opens))
				}
			}
			if total != n {
				t.Errorf("rank %d: %s %d branches opened, the first evaluation %d", r.ID(), when, total, n)
			}
		}

		acc1, pot1, _ := dt.ComputeForces(bodies)
		stores1, n1, f1 := stores(), 0, dt.Fetches()
		for _, st := range stores1 {
			n1 += len(st.slot.opens)
		}
		if f1 == 0 || int64(n1) < f1 {
			t.Errorf("rank %d: %d fetches for %d branches opened on %d ranks", r.ID(), f1, n1, p)
		}
		unwritten("during the first evaluation")
		drained("after the first evaluation")

		acc2, pot2, _ := dt.ComputeForces(bodies)
		sameStorage("in the second evaluation", stores1, n1)
		drained("after the second evaluation")
		if f2 := dt.Fetches(); f2 != 2*f1 {
			t.Errorf("rank %d: fetch counts %d then %d, want exact repeat", r.ID(), f1, f2)
		}
		for i := range acc1 {
			if acc2[i] != acc1[i] || pot2[i] != pot1[i] {
				t.Errorf("rank %d: body %d changed between evaluations", r.ID(), i)
				break
			}
		}
		unwritten("during the second evaluation")

		stores2 := stores()
		dt.resetCaches()
		sameStorage("after the reset", stores2, 0)
		if slices.Contains(dt.asked, true) || slices.Contains(dt.arrived, true) {
			t.Errorf("rank %d: the reset left requests or arrivals marked", r.ID())
		}
		unwritten("by the reset")

		dt = buildDistributed(r, bodies, splitters, boxLo, boxSize, opt, fa)
		sameStorage("on the next tree before its evaluation", stores2, 0)
		acc3, pot3, _ := dt.ComputeForces(bodies)
		sameStorage("on the next tree", stores2, n1)
		drained("after the next tree's evaluation")
		if !slices.Equal(dt.route, route0) {
			t.Errorf("rank %d: the next tree on the same bodies routes the top otherwise", r.ID())
		}
		for i := range acc1 {
			if acc3[i] != acc1[i] || pot3[i] != pot1[i] {
				t.Errorf("rank %d: body %d changed on the next tree", r.ID(), i)
				break
			}
		}
	})
}

// With every bucket's list recycled through one scratch instead of being
// kept until the end, a warm single-rank evaluation allocates its outputs,
// its walkers and little else (hundreds of MB when every suspended walk kept
// its list).
func TestWarmEvaluationAllocatesLittle(t *testing.T) {
	skipUnderRace(t)
	ics := PlummerSphere(rand.New(rand.NewSource(36)), 8192, 1.0)
	mp.Run(testCluster(), 1, func(r *mp.Rank) {
		bodies, splitters, boxLo, boxSize := Decompose(r, ics)
		dt := BuildDistributed(r, bodies, splitters, boxLo, boxSize, Options{Theta: 0.7, Eps: 0.01, Workers: 1})
		dt.ComputeForces(bodies)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dt.ComputeForces(bodies)
		runtime.ReadMemStats(&after)
		if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 8 {
			t.Errorf("second evaluation of 8192 bodies allocated %.1f MB, want < 8", mb)
		}
	})
}

// skipUnderRace skips an allocation test: under the race detector sync.Pool
// drops a quarter of its Puts.
func skipUnderRace(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("under the race detector sync.Pool drops a quarter of its Puts")
			}
		}
	}
}

// A warm step on many ranks allocates little: Run keeps each rank's request
// and arrival flags and opens from step to step, and a group reads the
// owner's tree instead of a copy of it. Measured over the second step of an
// 8-rank run — Interrupt is polled on rank 0 between steps, when every rank
// is through the last evaluation — the step reads about 1.4 MB on amd64: the
// decomposition, the build, the outputs, the walkers, and about 870 fetches
// an evaluation with their ABM records. With a reply table and dense per-rank send histograms it read
// 1.8 MB; with one-level replies and a second walk of every group, 2.7 MB,
// for 4500 fetches.
func TestWarmStepAllocatesLittle(t *testing.T) {
	skipUnderRace(t)
	ics := PlummerSphere(rand.New(rand.NewSource(46)), 4096, 1.0)
	var mark []uint64
	res := Run(RunConfig{
		Cluster: testCluster(), Procs: 8, Steps: 3,
		Opt: Options{Theta: 0.7, Eps: 0.01, DT: 0.005, MaxLeaf: 16, Workers: 2},
		Interrupt: func() bool {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mark = append(mark, ms.TotalAlloc)
			return false
		},
	}, ics)
	if res.Err != nil || len(mark) != 3 || res.Fetches == 0 {
		t.Fatalf("run: err %v, %d polls, %d fetches", res.Err, len(mark), res.Fetches)
	}
	mb := float64(mark[2]-mark[1]) / (1 << 20)
	t.Logf("the second step allocated %.2f MB (%.0f fetches an evaluation)", mb, float64(res.Fetches)/4)
	if mb > 2.5 {
		t.Errorf("the second step allocated %.2f MB (%.0f fetches an evaluation), want <= 2.5", mb, float64(res.Fetches)/4)
	}
}

// Two groups that open the same remote branch make one request between
// them, and the branch is read in place: before any request, a group's
// gather opens it (Open) in the owner's tree at its cell of the branch — the
// one the owner's serveFetch names — and the reply only marks it arrived. Nothing is copied: the shared top cell links to no daughters, and
// the owner's cell is the one its own walks read, with the moments the
// branch exchange published, every cell below it linked to all the daughters
// its ChildMask names.
func TestFetchDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const n = 300
	ics := PlummerSphere(rng, n, 1.0)
	const p = 2
	var owner atomic.Pointer[DTree]
	mp.Run(testCluster(), p, func(r *mp.Rank) {
		lo, hi := n*r.ID()/p, n*(r.ID()+1)/p
		local := append([]Body(nil), ics[lo:hi]...)
		bodies, splitters, boxLo, boxSize := Decompose(r, local)
		dt := BuildDistributed(r, bodies, splitters, boxLo, boxSize, Options{Theta: 0.5, Eps: 0.02})
		if r.ID() != 0 {
			// Serve rank 0's requests until global quiescence.
			owner.Store(dt)
			dt.abm.Quiesce()
			return
		}
		// The first remote internal branch the groups open, in replay's order.
		groups := dt.local.Groups()
		walkers := dt.evalGroups(make([]vec.V3, len(bodies)), make([]float64, len(bodies)))
		target := int32(-1)
		for _, j := range opensOf(walkers) {
			if !dt.top.cells[j].Leaf {
				target = j
				break
			}
		}
		if target == -1 {
			t.Error("no remote internal branch opened on 2 ranks")
			dt.abm.Quiesce()
			return
		}
		at, w := dt.nLocal+target, dt.walker(groups[0])
		if got := dt.route[target]; got != at || dt.arrived[target] {
			t.Fatalf("branch %d before any request: overlay leads to %d, arrived %v; want %d, not arrived", target, got, dt.arrived[target], at)
		}
		rt, ri := w.Open(target)

		var st TraversalStats
		dt.requestBranch(target, &st)
		dt.requestBranch(target, &st)
		if dt.Fetches() != 1 || st.Fetches != 1 {
			t.Errorf("two groups opening one branch issued %d fetches (stats %d), want 1", dt.Fetches(), st.Fetches)
		}
		dt.abm.Quiesce()
		if got := dt.route[target]; got != at || !dt.arrived[target] {
			t.Fatalf("branch %d after the reply: overlay leads to %d, arrived %v; want %d, arrived", target, got, dt.arrived[target], at)
		}

		asked := &dt.top.cells[target]
		if d := asked.Daughters(dt.nLocal+target, nil); len(d) != 0 {
			t.Errorf("branch %d: the shared cell links to daughters %v", target, d)
		}
		o := owner.Load()
		rep, _ := o.serveFetch(0, asked.Key)
		if want := rep.(fetchReply); rt != want.t || ri != want.i || rt != o.local {
			t.Fatalf("Open leads to cell %d of %p, the owner serves cell %d of %p (its tree %p)", ri, rt, want.i, want.t, o.local)
		}
		if c := rt.At(ri).Bare(); bitsOf(&c, 0, 0) != bitsOf(asked, 0, 0) {
			t.Errorf("the owner's cell %v is not the branch the top published", c.Key)
		}
		var check func(i int32)
		check = func(i int32) {
			c := rt.At(i)
			if c.Leaf {
				return
			}
			kids := c.Daughters(i, nil)
			if len(kids) != bits.OnesCount8(c.ChildMask) {
				t.Errorf("owner's cell %v: %d daughters linked, mask %08b", c.Key, len(kids), c.ChildMask)
			}
			for _, d := range kids {
				check(d)
			}
		}
		check(ri)
	})
}

// listBits is an interaction list as its multipoles' values and its body
// segments' first rows and lengths.
type listBits struct {
	cells [][10]uint64
	segs  []segRef
}

type segRef struct {
	first *gravity.Source
	n     int
}

func bitsOfList(l *gravity.List) listBits {
	var b listBits
	for _, m := range l.Cells {
		b.cells = append(b.cells, mpBits(m))
	}
	for _, seg := range l.Segs {
		b.segs = append(b.segs, segRef{&seg[0], len(seg)})
	}
	return b
}

// Every branch a group opens is read in place, before the region: before any
// request, each branch a group's gather recorded opens (Open) at the cell of
// the owner's tree that the owner's serveFetch names; and each group's list,
// gathered then, is the list a gather builds over what the rank holds once
// the region has quiesced — the same multipole values and the same body
// segments, in the same order, of the lengths the region charges, opening
// the same branches. On 3, 8 and 64 ranks of a cold sphere.
func TestOpenedBranchesReadInPlace(t *testing.T) {
	const n = 4096
	ics := ColdSphere(rand.New(rand.NewSource(52)), n, 1.0)
	type read struct {
		j  int32
		rt *htree.Tree
		ri int32
	}
	for _, p := range []int{3, 8, 64} {
		dts, reads := make([]*DTree, p), make([][]read, p)
		var opened atomic.Int64
		mp.Run(testCluster(), p, func(r *mp.Rank) {
			lo, hi := n*r.ID()/p, n*(r.ID()+1)/p
			bodies, splitters, boxLo, boxSize := Decompose(r, append([]Body(nil), ics[lo:hi]...))
			dt := BuildDistributed(r, bodies, splitters, boxLo, boxSize, Options{Theta: 0.7, Eps: 0.01})
			dts[r.ID()] = dt
			// ComputeForces, step by step.
			acc, pot := make([]vec.V3, len(bodies)), make([]float64, len(bodies))
			dt.resetCaches()
			walkers := dt.evalGroups(acc, pot)
			lists, opens := make([]listBits, len(walkers)), make([][]int32, len(walkers))
			for i := range walkers {
				w := &walkers[i]
				opens[i] = slices.Clone(w.slot.opens[w.lo:w.hi])
				root := dt.walker(w.cell)
				lists[i] = bitsOfList(&dt.regather(&root).List)
				if !slices.Equal(root.slot.opens, opens[i]) {
					t.Errorf("p=%d rank %d: group %v opens %v in the engine, %v gathered again", p, r.ID(), w.cell.Key, opens[i], root.slot.opens)
				}
				for _, j := range opens[i] {
					if dt.asked[j] || dt.arrived[j] {
						t.Errorf("p=%d rank %d: branch %v asked for before the region", p, r.ID(), dt.top.cells[j].Key)
					}
					rt, ri := root.Open(j)
					reads[r.ID()] = append(reads[r.ID()], read{j, rt, ri})
				}
				opened.Add(int64(len(opens[i])))
			}
			st := TraversalStats{PerBody: make([]float64, len(bodies))}
			r.OneSlot(func() { dt.replay(walkers, &st) })

			for i := range walkers {
				w := &walkers[i]
				root := dt.walker(w.cell)
				got := bitsOfList(&dt.regather(&root).List)
				if !slices.Equal(got.cells, lists[i].cells) || !slices.Equal(got.segs, lists[i].segs) || !slices.Equal(root.slot.opens, opens[i]) {
					t.Errorf("p=%d rank %d: group %v lists %d cells and %d segments and opens %d branches before the region, after it %d, %d and %d, not the same",
						p, r.ID(), w.cell.Key, len(lists[i].cells), len(lists[i].segs), len(opens[i]), len(got.cells), len(got.segs), len(root.slot.opens))
					return
				}
				nb := 0
				for _, seg := range got.segs {
					nb += seg.n
				}
				if w.nc != len(got.cells) || w.nb != nb {
					t.Errorf("p=%d rank %d: group %v charged %d cells and %d bodies, lists %d and %d", p, r.ID(), w.cell.Key, w.nc, w.nb, len(got.cells), nb)
				}
			}
		})
		if opened.Load() == 0 {
			t.Errorf("p=%d: no rank opened another rank's branch", p)
		}
		for rank, rs := range reads {
			top := dts[rank].top
			for _, rd := range rs {
				o := dts[top.owner[rd.j]]
				rep, _ := o.serveFetch(rank, top.cells[rd.j].Key)
				if want := rep.(fetchReply); rd.rt != want.t || rd.ri != want.i {
					t.Errorf("p=%d rank %d: branch %v opened at cell %d of %p, its owner serves cell %d of %p",
						p, rank, top.cells[rd.j].Key, rd.ri, rd.rt, want.i, want.t)
				}
			}
		}
	}
}

// regatherForces re-walks every bucket of a finished evaluation — the same
// sink groups, over the branches they fetched — with the engine's own gather
// (regather) and evaluates the lists. With seed
// set it evaluates them the way the seed did: what the list refers to is
// copied out row by row, sorted by value, the list pointed at the copies —
// cells in sorted order, bodies as one sorted segment — and summed with the
// seed's arithmetic (gravity/seedref) in place of the kernels'.
func regatherForces(dt *DTree, bodies []Body, seed bool) ([]vec.V3, []float64) {
	acc := make([]vec.V3, len(bodies))
	pot := make([]float64, len(bodies))
	for _, c := range dt.local.Groups() {
		w := dt.walker(c)
		sc := dt.regather(&w)
		if !seed {
			dt.local.EvalBucket(c, dt.opt.Eps, sc, acc, pot)
			continue
		}
		var cells gravity.MultipoleSoA
		var srcs gravity.SoA
		for _, m := range sc.List.Cells {
			cells.Push(m)
		}
		for _, seg := range sc.List.Segs {
			for _, b := range seg {
				srcs.Push(b.Pos, b.Mass)
			}
		}
		cells.Sort()
		srcs.Sort()
		sinks := dt.local.Bodies[c.Lo:c.Hi]
		a, ph := seedref.Forces(&gravity.List{Cells: cells.Refs(), Segs: [][]gravity.Source{srcs.Rows()}}, positionsOf(sinks), dt.opt.Eps)
		for j := range sinks {
			acc[sinks[j].ID], pot[sinks[j].ID] = a[j], ph[j]
		}
	}
	return acc, pot
}

func positionsOf(bodies []htree.Body) []vec.V3 {
	pos := make([]vec.V3, len(bodies))
	for i := range bodies {
		pos[i] = bodies[i].Pos
	}
	return pos
}

// Every group's list is the depth-first walk of what the rank holds once
// the branches it opens are resident, so gathering every group again after
// the fact, with nothing outstanding, reproduces the engine's forces bit for
// bit.
func TestDirectEqualsSecondPass(t *testing.T) {
	const n, p = 1500, 3
	ics := PlummerSphere(rand.New(rand.NewSource(37)), n, 1.0)
	mp.Run(testCluster(), p, func(r *mp.Rank) {
		lo, hi := n*r.ID()/p, n*(r.ID()+1)/p
		bodies, splitters, boxLo, boxSize := Decompose(r, append([]Body(nil), ics[lo:hi]...))
		dt := BuildDistributed(r, bodies, splitters, boxLo, boxSize, Options{Theta: 0.7, Eps: 0.01})
		acc, pot, _ := dt.ComputeForces(bodies)
		acc2, pot2 := regatherForces(dt, bodies, false)
		for i := range acc {
			if acc[i] != acc2[i] || pot[i] != pot2[i] {
				t.Errorf("rank %d body %d: engine (%v, %v), re-gathered (%v, %v)", r.ID(), i, acc[i], pot[i], acc2[i], pot2[i])
				return
			}
		}
	})
}

// The groups' gathers fetch exactly what they open. Over theta, rank counts
// and Plummer and uniform bodies: the branches each group's gather records
// are, group after group, those the walk loop reaches without accepting when
// it descends into no remote branch (the topOpens oracle); the branches the
// rank asked for are their union. On several ranks the lists mix local
// cells, fills, other ranks' branches and cells of other ranks' trees
// (fetched), and every kind is checked to appear.
func TestCoarseWalkCoversGroups(t *testing.T) {
	const n = 1500
	for _, ic := range []string{"plummer", "uniform"} {
		rng := rand.New(rand.NewSource(7))
		ics := PlummerSphere(rng, n, 1.0)
		if ic == "uniform" {
			ics = ColdSphere(rng, n, 1.0)
		}
		for _, theta := range []float64{0.4, 0.7, 1, 1.5, 2, 3} {
			for _, p := range []int{1, 3, 8} {
				var kinds [4]atomic.Int64 // local, top fill, top branch, fetched
				mp.Run(testCluster(), p, func(r *mp.Rank) {
					lo, hi := n*r.ID()/p, n*(r.ID()+1)/p
					bodies, splitters, boxLo, boxSize := Decompose(r, append([]Body(nil), ics[lo:hi]...))
					dt := BuildDistributed(r, bodies, splitters, boxLo, boxSize, Options{Theta: theta, Eps: 0.01})
					_, opens := dt.evaluate(bodies)
					if dt.local == nil {
						return
					}
					where := fmt.Sprintf("%s theta=%v p=%d rank %d", ic, theta, p, r.ID())
					oracle := &topOpens{dt: dt}
					var want []int32
					groups := dt.local.Groups()
					for i := len(groups) - 1; i >= 0; i-- {
						want = append(want, oracle.opened(groups[i])...)
					}
					if !slices.Equal(opens, want) {
						t.Errorf("%s: the groups' gathers record %d branches, the oracle's walks open %d", where, len(opens), len(want))
						return
					}
					for j, asked := range dt.asked {
						if asked != slices.Contains(want, int32(j)) {
							t.Errorf("%s: branch %v asked for %v", where, dt.top.cells[j].Key, asked)
							return
						}
					}
					// A multipole is fetched when it lies in the tree of a
					// rank this rank asked for a branch.
					kind := map[*gravity.Multipole]int{}
					for j, asked := range dt.asked {
						if !asked {
							continue
						}
						ft := dt.top.trees[dt.top.owner[j]]
						for i := 0; i < ft.NumCells(); i++ {
							kind[&ft.At(int32(i)).Mp] = 3
						}
					}
					for i := 0; i < dt.local.NumCells(); i++ {
						kind[&dt.local.At(int32(i)).Mp] = 0
					}
					for j := range dt.top.cells {
						kind[&dt.top.cells[j].Mp] = 1 + int(min(dt.top.owner[j]+1, 1))
					}
					for _, g := range groups {
						w := dt.walker(g)
						for _, m := range dt.regather(&w).List.Cells {
							k, ok := kind[m]
							if !ok {
								t.Errorf("%s: group %v lists a multipole in no tree the rank holds or refers to", where, g.Key)
								return
							}
							kinds[k].Add(1)
						}
					}
				})
				if theta != 0.7 {
					continue
				}
				for k, name := range []string{"local cells", "fills", "other ranks' branches", "fetched cells"} {
					if got := kinds[k].Load(); (got == 0) != (p == 1 && k > 0) {
						t.Errorf("%s p=%d: %d %s on the lists", ic, p, got, name)
					}
				}
			}
		}
	}
}

// More ranks than bodies: ranks without bodies only serve, and a rank that
// has some fetches a handful of deep branches.
func TestMoreRanksThanBodies(t *testing.T) {
	for _, n := range []int{1, 2, 3, 9} {
		for _, w := range []int{1, 4} {
			ics := PlummerSphere(rand.New(rand.NewSource(44)), n, 1.0)
			var res Result
			atWidth(w, func() {
				res = Run(RunConfig{
					Cluster: testCluster(), Procs: 8, Steps: 2,
					Opt: Options{Theta: 0.6, Eps: 0.02, DT: 0.005},
				}, ics)
			})
			if res.Err != nil || res.CompletedSteps != 2 {
				t.Errorf("n=%d width=%d: err %v after %d steps", n, w, res.Err, res.CompletedSteps)
			}
		}
	}
}

// The schedule pin: the virtual makespan and every count of a run, one
// walker per leaf and one per sink group, at any width of the pool. Recorded
// at 0b4a841 for the one-pass walk, on one engine worker, and held through
// the two-pass rewrite; the group pin re-recorded when the walk went to
// groups and when local leaves were tested like remote ones; both re-pinned
// once when replies brought whole subtrees and each group came to be walked
// once (fetches 7835 and 3130, messages 1140 and 824, makespans 0.3966 and
// 0.2657 s before), and once when the walk became a one-slot region, the
// allgathers took log P rounds, the body exchange went only where a rank's
// span reaches and a step lost three allreduces (messages 464 and 464,
// makespans 0.22804 and 0.11751 s before), and once when every message came
// to leave through its sender's NIC one after another and pay the
// per-message overhead once (makespans 0.22445 and 0.11455 s before).
// Interactions and fetches did not move.
func TestSchedulePinnedAcrossTwoPassRewrite(t *testing.T) {
	ics := PlummerSphere(rand.New(rand.NewSource(43)), 2000, 1.0)
	for _, pin := range []struct {
		leaves                          bool
		fetches, interactions, messages int64
		makespan                        float64
	}{
		{false, 717, 6950842, 344, 0.2258390086172664},
		{true, 570, 3558151, 346, 0.11634950308032112},
	} {
		if pin.leaves {
			leafGroups(t)
		}
		res := Run(RunConfig{
			Cluster: testCluster(), Procs: 4, Steps: 3,
			Opt: Options{Theta: 0.6, Eps: 0.02, DT: 0.005},
		}, ics)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Fetches != pin.fetches || res.Interactions != pin.interactions || res.Comm.Messages != pin.messages {
			t.Errorf("leaves=%v: fetches %d, interactions %d, messages %d; pinned %d, %d, %d", pin.leaves,
				res.Fetches, res.Interactions, res.Comm.Messages, pin.fetches, pin.interactions, pin.messages)
		}
		if runtime.GOARCH == "amd64" && res.ElapsedVirtual != pin.makespan {
			t.Errorf("leaves=%v: virtual makespan %v, pinned %v", pin.leaves, res.ElapsedVirtual, pin.makespan)
		}
	}
}

// Exercises the grouped engine's loops across multiple steps and ranks; run
// under `go test -race` this checks their sharing discipline (each group's
// gather and evaluation write only its disjoint output range and the loop
// goroutine's own scratch).
func TestGroupedWorkerPoolConcurrency(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	ics := PlummerSphere(rng, 500, 1.0)
	res := Run(RunConfig{
		Cluster: testCluster(), Procs: 2, Steps: 2,
		Opt: Options{Theta: 0.6, Eps: 0.02, DT: 0.005, Workers: 8},
	}, ics)
	if len(res.EnergyHistory) == 0 || res.Interactions == 0 {
		t.Fatalf("run produced no work: %+v", res)
	}
	e0 := res.EnergyHistory[0].Total()
	for _, e := range res.EnergyHistory {
		if math.Abs(e.Total()-e0) > 2e-3*math.Abs(e0) {
			t.Fatalf("energy drift with worker pool: %v vs %v", e.Total(), e0)
		}
	}
}

// A world's goroutines are its ranks and the host loops of the ranks that
// hold an execution slot, not an evaluation pool per rank: on 64 ranks with
// eight workers, what a one-step run reaches stays below P, plus Workers+1
// for each of the scheduler's min(GOMAXPROCS, P) slots, plus a few.
func TestWorldGoroutinesBounded(t *testing.T) {
	const p, workers, few = 64, 8, 8
	ics := ColdSphere(rand.New(rand.NewSource(47)), 16384, 1.0)
	base, peak := runtime.NumGoroutine()+1, 0 // +1: the sampler
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			peak = max(peak, runtime.NumGoroutine())
			select {
			case <-stop:
				return
			default:
				time.Sleep(20 * time.Microsecond)
			}
		}
	}()
	res := Run(RunConfig{
		Cluster: testCluster(), Procs: p, Steps: 1,
		Opt: Options{Theta: 0.7, Eps: 0.01, DT: 0.005, MaxLeaf: 16, Workers: workers},
	}, ics)
	close(stop)
	<-done
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	bound := base + p + par.Width(0, p)*(workers+1) + few
	t.Logf("peak %d goroutines, %d before the run, bound %d", peak, base, bound)
	if peak >= bound {
		t.Errorf("the run reached %d goroutines, %d before it; want below %d: %d ranks, %d slots of %d+1",
			peak, base, bound, p, par.Width(0, p), workers)
	}
}

func rmsAccErr(got, ref []vec.V3) float64 {
	var sum2, ref2 float64
	for i := range ref {
		sum2 += got[i].Sub(ref[i]).Norm2()
		ref2 += ref[i].Norm2()
	}
	return math.Sqrt(sum2 / ref2)
}
