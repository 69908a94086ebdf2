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
	"strings"
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

// walker returns the walker of sink group g, not yet begun.
func (dt *DTree) walker(g *htree.Cell) bucketWalker {
	return bucketWalker{dt: dt, cell: g, mac: htree.NewGroupMAC(g, dt.opt.Theta)}
}

func positions(bodies []Body) []vec.V3 {
	pos := make([]vec.V3, len(bodies))
	for i := range bodies {
		pos[i] = bodies[i].Pos
	}
	return pos
}

// regather walks group w again over what the rank holds — the engine's own
// gather loop, from the root on a fresh scratch rather than from the group's
// frontier — for tests to compare against, and returns the scratch.
func (dt *DTree) regather(w *bucketWalker) *htree.BucketScratch {
	sc := new(htree.BucketScratch)
	sc.Push(dt.route[0])
	dt.local.Gather(&w.mac, sc, w)
	return sc
}

// topOpens is the oracle of walkTop: Gather itself, over the routes the
// branch exchange left — every other rank's branch at the bare top cell —
// appends to opens each such branch the walk of group g reaches and does
// not accept, in the order it reaches them.
type topOpens struct {
	dt    *DTree
	route []int32
	opens []int32
}

func (o *topOpens) Layout() ([]htree.Cell, []int32, int32) {
	dt := o.dt
	return dt.top.cells, o.route, dt.base()
}

func (o *topOpens) Remote(i int32) (*htree.Tree, int32) {
	panic(fmt.Sprintf("oracle reached index %d, a resident branch", i))
}

func (o *topOpens) Open(i int32, c *htree.Cell) {
	if j := i - o.dt.nLocal; o.dt.top.owner[j] < 0 || &o.dt.top.cells[j] != c {
		panic(fmt.Sprintf("oracle reached cell %d (%v), not a bare remote branch", i, c.Key))
	}
	o.opens = append(o.opens, i-o.dt.nLocal)
}

// opened returns the remote branches group g's walk opens, by the oracle.
func (o *topOpens) opened(g *htree.Cell) []int32 {
	if o.route == nil {
		o.route = make([]int32, len(o.dt.top.cells))
		for j, own := range o.dt.top.owner {
			o.route[j] = o.dt.nLocal + int32(j)
			if int(own) == o.dt.r.ID() {
				o.route[j] = o.dt.local.Find(o.dt.top.cells[j].Key)
			}
		}
	}
	o.opens = o.opens[:0]
	mac := htree.NewGroupMAC(g, o.dt.opt.Theta)
	var sc htree.BucketScratch
	sc.Push(o.route[0])
	o.dt.local.Gather(&mac, &sc, o)
	return o.opens
}

// A group is gathered only once the top walks have routed every branch it
// opens, so its walk can meet no cell without bodies or daughters; one that
// does is a bug, and the walk says so. On two ranks, before any top walk:
// every group whose walk opens one of the other rank's branches panics
// naming a non-resident cell, and every other group gathers.
func TestGroupWalkPanicsOnMiss(t *testing.T) {
	ics := PlummerSphere(rand.New(rand.NewSource(38)), 600, 1.0)
	const p = 2
	mp.Run(testCluster(), p, func(r *mp.Rank) {
		n := len(ics)
		lo, hi := n*r.ID()/p, n*(r.ID()+1)/p
		bodies, splitters, boxLo, boxSize := Decompose(r, append([]Body(nil), ics[lo:hi]...))
		dt := BuildDistributed(r, bodies, splitters, boxLo, boxSize, Options{Theta: 0.6, Eps: 0.02})
		if r.ID() == 0 {
			oracle, opening := &topOpens{dt: dt}, 0
			for _, g := range dt.local.Groups() {
				w := dt.walker(g)
				missing := len(oracle.opened(g)) > 0
				func() {
					defer func() {
						e := recover()
						if missing {
							opening++
						}
						if got := e != nil && strings.Contains(fmt.Sprint(e), "group walk reached non-resident cell"); got != missing {
							t.Errorf("group %v opens %d remote branches: recovered %v", g.Key, len(oracle.opens), e)
						}
					}()
					dt.regather(&w)
				}()
			}
			if opening == 0 {
				t.Error("no group of rank 0 opens a branch of rank 1")
			}
		}
		dt.abm.Quiesce()
	})
}

// What one evaluation routes, asks for and records is dropped when the next
// one starts. resetCaches forgets the requests, the arrivals and the top
// walks' records and drops the overlay's routes to the other ranks' branches,
// so a second evaluation on the same tree routes and fetches exactly the same
// branches and reproduces the forces bit for bit — into the same storage,
// which the rank's fetch arena keeps, as it does for the next tree built on
// it. None of it touches the replicated top, which is the world's: an
// evaluation leaves every bit of it as the branch exchange made it.
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
		route0 := append([]int32(nil), dt.route...)
		top0 := make([]cellBits, len(dt.top.cells))
		for i := range dt.top.cells {
			top0[i] = bitsOf(&dt.top.cells[i], int32(i), dt.top.owner[i])
		}
		topUnwritten := func(when string) {
			for i := range dt.top.cells {
				if got := bitsOf(&dt.top.cells[i], int32(i), dt.top.owner[i]); got != top0[i] {
					t.Errorf("rank %d: top cell %d (%v) changed %s", r.ID(), i, dt.top.cells[i].Key, when)
					return
				}
			}
		}

		drained := func(when string) {
			if n := dt.abm.Outstanding(); n != 0 {
				t.Errorf("rank %d: %s %d requests outstanding", r.ID(), when, n)
			}
			base := dt.base()
			for j, asked := range dt.asked {
				if asked != dt.arrived[j] || asked && dt.route[j] != base+int32(j) {
					t.Errorf("rank %d: %s branch %v was asked for %v, arrived %v, routed to %d", r.ID(), when, dt.top.cells[j].Key, asked, dt.arrived[j], dt.route[j])
					return
				}
			}
		}
		sameStorage := func(when string, opens *int32) {
			if len(dt.opens) == 0 || &dt.opens[0] != opens {
				t.Errorf("rank %d: %s the %d opens are not in the arena's storage", r.ID(), when, len(dt.opens))
			}
		}

		acc1, pot1, _ := dt.ComputeForces(bodies)
		n1, f1 := len(dt.opens), dt.Fetches()
		if f1 == 0 || int64(n1) < f1 {
			t.Errorf("rank %d: %d fetches for %d branches opened on %d ranks", r.ID(), f1, n1, p)
		}
		var opens *int32
		if n1 > 0 {
			opens = &dt.opens[0]
		}
		cap1 := cap(dt.opens)
		topUnwritten("during the first evaluation")
		drained("after the first evaluation")

		acc2, pot2, _ := dt.ComputeForces(bodies)
		if n2 := len(dt.opens); n2 != n1 || cap(dt.opens) != cap1 {
			t.Errorf("rank %d: opens grew across evaluations: %d -> %d, capacity %d -> %d", r.ID(), n1, n2, cap1, cap(dt.opens))
		}
		sameStorage("in the second evaluation", opens)
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
		topUnwritten("during the second evaluation")

		dt.resetCaches()
		if len(dt.opens) != 0 || len(dt.frontier) != 0 || slices.Contains(dt.asked, true) || slices.Contains(dt.arrived, true) {
			t.Errorf("rank %d: the reset left %d opens, %d frontier cells and requests or arrivals marked", r.ID(), len(dt.opens), len(dt.frontier))
		}
		for i, o := range dt.route {
			if o != route0[i] {
				t.Errorf("rank %d: overlay entry of %v is %d after the reset, %d after the branch exchange", r.ID(), dt.top.cells[i].Key, o, route0[i])
			}
		}

		dt = buildDistributed(r, bodies, splitters, boxLo, boxSize, opt, fa)
		if len(dt.opens) != 0 {
			t.Errorf("rank %d: the next tree on the arena starts with %d opens", r.ID(), len(dt.opens))
		}
		acc3, pot3, _ := dt.ComputeForces(bodies)
		if n3 := len(dt.opens); n3 != n1 || cap(dt.opens) != cap1 {
			t.Errorf("rank %d: the next tree on the same bodies opens %d branches (capacity %d), the first %d (%d)", r.ID(), n3, cap(dt.opens), n1, cap1)
		}
		sameStorage("on the next tree", opens)
		drained("after the next tree's evaluation")
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
// and arrival flags, opens and frontiers from step to step, and a group reads
// the owner's tree instead of a copy of it. Measured over the second
// step of an 8-rank run — Interrupt is polled on rank 0 between steps, when
// every rank is through the last evaluation — the step reads about 1.4 MB on
// amd64: the decomposition, the build, the outputs, the walkers, the walk
// stacks the frontiers fill, and about 870 fetches an evaluation with their
// ABM records. With a reply table and dense per-rank send histograms it read
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
// them, and the branch is read in place: before any request, the top walk
// routes it past the top, to the owner's tree and its cell of the branch —
// the one the owner's serveFetch names — and the reply only marks it
// arrived. Nothing is copied: the shared top cell links to no daughters, and
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
		// The first remote internal branch the top walks open, in their order.
		groups := dt.local.Groups()
		for i := len(groups) - 1; i >= 0; i-- {
			w := dt.walker(groups[i])
			dt.walkTop(&w)
		}
		target := int32(-1)
		for _, j := range dt.opens {
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
		base, w := dt.base(), dt.walker(groups[0])
		if got := dt.route[target]; got != base+target || dt.arrived[target] {
			t.Fatalf("branch %d before any request: overlay leads to %d, arrived %v; want %d, not arrived", target, got, dt.arrived[target], base+target)
		}
		rt, ri := w.Remote(dt.route[target])

		var st TraversalStats
		dt.requestBranch(target, &st)
		dt.requestBranch(target, &st)
		if dt.Fetches() != 1 || st.Fetches != 1 {
			t.Errorf("two groups opening one branch issued %d fetches (stats %d), want 1", dt.Fetches(), st.Fetches)
		}
		dt.abm.Quiesce()
		if got := dt.route[target]; got != base+target || !dt.arrived[target] {
			t.Fatalf("branch %d after the reply: overlay leads to %d, arrived %v; want %d, arrived", target, got, dt.arrived[target], base+target)
		}

		asked := &dt.top.cells[target]
		if d := asked.Daughters(dt.nLocal+target, nil); len(d) != 0 {
			t.Errorf("branch %d: the shared cell links to daughters %v", target, d)
		}
		o := owner.Load()
		rep, _ := o.serveFetch(0, asked.Key)
		if want := rep.(fetchReply); rt != want.t || ri != want.i || rt != o.local {
			t.Fatalf("route leads to cell %d of %p, the owner serves cell %d of %p (its tree %p)", ri, rt, want.i, want.t, o.local)
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
// request, the route the top walks give it leads to the cell of the owner's
// tree that the owner's serveFetch names; and each group's list, gathered
// then, is the list a gather from the root builds over what the rank holds
// once the region has quiesced (regather) — the same multipole values and the
// same body segments, in the same order, of the lengths the region charges.
// On 3, 8 and 64 ranks of a cold sphere.
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
			lists := make([]listBits, len(walkers))
			for i := range walkers {
				w, sc := walkers[i], new(htree.BucketScratch)
				w.begin(sc)
				dt.local.Gather(&w.mac, sc, &w)
				lists[i] = bitsOfList(&sc.List)
			}
			for _, j := range dt.opens {
				if dt.asked[j] || dt.arrived[j] {
					t.Errorf("p=%d rank %d: branch %v asked for before the region", p, r.ID(), dt.top.cells[j].Key)
				}
				rt, ri := walkers[0].Remote(dt.route[j])
				reads[r.ID()] = append(reads[r.ID()], read{j, rt, ri})
			}
			opened.Add(int64(len(dt.opens)))
			st := TraversalStats{PerBody: make([]float64, len(bodies))}
			r.OneSlot(func() { dt.replay(walkers, &st) })

			for i := range walkers {
				w := &walkers[i]
				root := dt.walker(w.cell)
				got := bitsOfList(&dt.regather(&root).List)
				if !slices.Equal(got.cells, lists[i].cells) || !slices.Equal(got.segs, lists[i].segs) {
					t.Errorf("p=%d rank %d: group %v lists %d cells and %d segments before the region, a gather from the root after it %d and %d, not the same",
						p, r.ID(), w.cell.Key, len(lists[i].cells), len(lists[i].segs), len(got.cells), len(got.segs))
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
					t.Errorf("p=%d rank %d: branch %v routed to cell %d of %p, its owner serves cell %d of %p",
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

// A group's gather starts where its top walk stopped (begin), and lists what
// a gather from the root (regather) lists: the same multipole values and the
// same body segments, in the same order. The values, not the cells: a remote
// branch the top walk accepted is listed as the top's copy of it, which a
// gather from the root finds routed to the owner's cell once it is resident.
// Over rank counts, theta and Plummer, uniform and clustered bodies with a
// pile of coincident ones, once every branch is resident; on one rank the
// frontier is the root.
func TestFrontierGatherEqualsRootGather(t *testing.T) {
	const n = 1500
	for _, ic := range []struct {
		name string
		make func(rng *rand.Rand, n int) []Body
	}{
		{"plummer", func(rng *rand.Rand, n int) []Body { return PlummerSphere(rng, n, 1.0) }},
		{"uniform", func(rng *rand.Rand, n int) []Body { return ColdSphere(rng, n, 1.0) }},
		{"clustered", clusteredBodies},
	} {
		ics := ic.make(rand.New(rand.NewSource(48)), n)
		for _, theta := range []float64{0.3, 0.7, 1.2} {
			for _, p := range []int{1, 2, 3, 8, 13} {
				mp.Run(testCluster(), p, func(r *mp.Rank) {
					lo, hi := n*r.ID()/p, n*(r.ID()+1)/p
					bodies, splitters, boxLo, boxSize := Decompose(r, append([]Body(nil), ics[lo:hi]...))
					dt := BuildDistributed(r, bodies, splitters, boxLo, boxSize, Options{Theta: theta, Eps: 0.01})
					dt.ComputeForces(bodies)
					if dt.local == nil {
						return
					}
					where := fmt.Sprintf("%s theta=%v p=%d rank %d", ic.name, theta, p, r.ID())
					for _, g := range dt.local.Groups() {
						w, root := dt.walker(g), dt.walker(g)
						dt.walkTop(&w)
						if p == 1 && !slices.Equal(dt.frontier[w.flo:w.fhi], []int32{0}) {
							t.Errorf("%s: group %v starts from top cells %v, not the root", where, g.Key, dt.frontier[w.flo:w.fhi])
						}
						sc := new(htree.BucketScratch)
						w.begin(sc)
						dt.local.Gather(&w.mac, sc, &w)
						a, b := &sc.List, &dt.regather(&root).List
						same := len(a.Cells) == len(b.Cells)
						for i := 0; same && i < len(a.Cells); i++ {
							same = mpBits(a.Cells[i]) == mpBits(b.Cells[i])
						}
						if !same {
							t.Errorf("%s: group %v lists %d cells from its frontier, %d from the root, not the same", where, g.Key, len(a.Cells), len(b.Cells))
						}
						same = len(a.Segs) == len(b.Segs)
						for i := 0; same && i < len(a.Segs); i++ {
							same = len(a.Segs[i]) == len(b.Segs[i]) && &a.Segs[i][0] == &b.Segs[i][0]
						}
						if !same {
							t.Errorf("%s: group %v lists %d segments from its frontier, %d from the root, not the same", where, g.Key, len(a.Segs), len(b.Segs))
						}
					}
				})
			}
		}
	}
}

// The top walks fetch exactly what the groups open. Over theta, rank counts
// and Plummer and uniform bodies: the branches each group's top walk lists
// are, group after group, those the walk loop itself reaches without
// accepting when no remote branch is resident (the topOpens oracle); the
// branches the rank asked for are their union; and the evaluation and every
// group's walk after it gather with no miss. Theta 3 is there because only
// that far out does a top walk that accepted a fill over its group's own
// key (Gather never does) miss a branch, and panic. On several ranks the
// lists mix local cells, fills, other ranks' branches and cells of other
// ranks' trees (fetched), and every kind is checked to appear.
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
					dt.ComputeForces(bodies)
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
					if !slices.Equal(dt.opens, want) {
						t.Errorf("%s: the top walks list %d branches, the groups' walks open %d", where, len(dt.opens), len(want))
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
