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

	// Hundreds of groups on one rank, all resident at once: one run, gathered
	// and evaluated by a loop two wide on one worker and nine wide on eight.
	many := PlummerSphere(rand.New(rand.NewSource(45)), 3000, 1.0)
	var accW [2][]vec.V3
	var potW [2][]float64
	for i, workers := range []int{1, 8} {
		accW[i], potW[i] = forcesWith(many, 1, Options{Theta: 0.6, Eps: 0.02, Workers: workers})
	}
	for i := range accW[0] {
		if accW[0][i] != accW[1][i] || potW[0][i] != potW[1][i] {
			t.Fatalf("one run of groups: body %d differs: (%v, %v) on one worker, (%v, %v) on eight",
				i, accW[0][i], potW[0][i], accW[1][i], potW[1][i])
		}
	}

	// Runs of groups as long as the replies make them. Eight ranks with four
	// fifths of the bodies on rank 0 (the decomposition balances work, so the
	// first bodies in key order are made cheap): the light ranks are through
	// their walks long before rank 0 stops asking them for branches, and
	// wait in Quiesce while rank 0 gathers and evaluates. At any width of the scheduler's pool, whatever runs beside
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

// A group is gathered only once every branch it opens is resident, so its
// walk can meet no cell without bodies or daughters; one that does is a
// bug, and the walk says so. On two ranks, before any fetch: every group
// whose walk opens one of the other rank's branches panics naming a
// non-resident cell, and every other group gathers.
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

// The memory bound on what a rank holds of the others' trees: what one
// evaluation fetches is referred to until the next one starts and no longer.
// resetCaches empties the rank's reply table, clearing its entries so that
// the other ranks' trees are released, forgets the requests and the top
// walks' records and drops the overlay's routes to the replies, so a second
// evaluation on the same tree re-fetches exactly the same branches and
// reproduces the forces bit for bit — into the same storage, which the
// rank's fetch arena keeps, as it does for the next tree built on it. None
// of it touches the replicated top, which is the world's: an evaluation
// leaves every bit of it as the branch exchange made it.
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
		if len(dt.replies) != 0 || len(dt.route) != len(dt.top.cells) {
			t.Errorf("rank %d: after the branch exchange the table holds %d replies, the overlay %d entries for a top of %d",
				r.ID(), len(dt.replies), len(dt.route), len(dt.top.cells))
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
				if asked && dt.route[j] < base {
					t.Errorf("rank %d: %s branch %v was asked for and is not resident", r.ID(), when, dt.top.cells[j].Key)
					return
				}
			}
		}
		sameStorage := func(when string, table *fetchReply) {
			if len(dt.replies) == 0 || &dt.replies[0] != table {
				t.Errorf("rank %d: %s the table of %d replies is not the arena's storage", r.ID(), when, len(dt.replies))
			}
		}

		acc1, pot1, _ := dt.ComputeForces(bodies)
		n1, f1 := len(dt.replies), dt.Fetches()
		if f1 == 0 || int64(n1) != f1 {
			t.Errorf("rank %d: %d fetches left %d replies in the table on %d ranks", r.ID(), f1, n1, p)
		}
		var table *fetchReply
		if n1 > 0 {
			table = &dt.replies[0]
		}
		cap1 := cap(dt.replies)
		topUnwritten("during the first evaluation")
		drained("after the first evaluation")

		acc2, pot2, _ := dt.ComputeForces(bodies)
		if n2 := len(dt.replies); n2 != n1 || cap(dt.replies) != cap1 {
			t.Errorf("rank %d: table grew across evaluations: %d -> %d replies, capacity %d -> %d", r.ID(), n1, n2, cap1, cap(dt.replies))
		}
		sameStorage("in the second evaluation", table)
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
		if len(dt.replies) != 0 {
			t.Errorf("rank %d: table not emptied: %d replies", r.ID(), len(dt.replies))
		}
		for _, rep := range dt.replies[:cap(dt.replies)] {
			if rep != (fetchReply{}) {
				t.Errorf("rank %d: emptied table still references another rank's tree", r.ID())
				break
			}
		}
		if len(dt.opens) != 0 || len(dt.frontier) != 0 || slices.Contains(dt.asked, true) {
			t.Errorf("rank %d: the reset left %d opens, %d frontier cells and requests marked", r.ID(), len(dt.opens), len(dt.frontier))
		}
		for i, o := range dt.route {
			if o != route0[i] {
				t.Errorf("rank %d: overlay entry of %v is %d after the reset, %d after the branch exchange", r.ID(), dt.top.cells[i].Key, o, route0[i])
			}
		}

		dt = buildDistributed(r, bodies, splitters, boxLo, boxSize, opt, fa)
		if len(dt.replies) != 0 {
			t.Errorf("rank %d: the next tree on the arena starts with %d replies in the table", r.ID(), len(dt.replies))
		}
		acc3, pot3, _ := dt.ComputeForces(bodies)
		if n3 := len(dt.replies); n3 != n1 || cap(dt.replies) != cap1 {
			t.Errorf("rank %d: the next tree on the same bodies holds %d replies (capacity %d), the first %d (%d)", r.ID(), n3, cap(dt.replies), n1, cap1)
		}
		sameStorage("on the next tree", table)
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

// A warm step on many ranks allocates little: Run keeps each rank's reply
// table, request flags, opens and frontiers from step to step, and a reply
// refers to the owner's tree instead of copying it. Measured over the second
// step of an 8-rank run — Interrupt is polled on rank 0 between steps, when
// every rank is through the last evaluation — the step reads about 1.8 MB on
// amd64: the decomposition, the build, the outputs, the walkers, the walk
// stacks the frontiers fill, and about 870 fetches an evaluation with their
// ABM records. With one-level replies and a second walk of every group it
// read 2.7 MB, for 4500 fetches.
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
// them, and the one reply is a reference: the owner's tree and its cell of
// the branch, entry 0 of the rank's reply table, which the overlay routes the
// branch to. Nothing is copied: the shared top cell links to no daughters,
// and the owner's cell is the one its own walks read, with the moments the
// branch exchange published, every cell below it linked to all the
// daughters its ChildMask names.
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
		// First remote-owned internal branch of the top: deterministic pick.
		target := int32(-1)
		for j, o := range dt.top.owner {
			if o >= 0 && int(o) != r.ID() && !dt.top.cells[j].Leaf {
				target = int32(j)
				break
			}
		}
		if target == -1 {
			t.Error("no remote-owned internal branch on 2 ranks")
			dt.abm.Quiesce()
			return
		}
		var st TraversalStats
		dt.requestBranch(target, &st)
		dt.requestBranch(target, &st)
		if dt.Fetches() != 1 || st.Fetches != 1 {
			t.Errorf("two groups opening one branch issued %d fetches (stats %d), want 1", dt.Fetches(), st.Fetches)
		}
		dt.abm.Quiesce()

		base := dt.base()
		asked := &dt.top.cells[target]
		if got := dt.route[target]; got != base || len(dt.replies) != 1 {
			t.Fatalf("branch %d: overlay leads to %d with %d replies, want the table's first entry, %d", target, got, len(dt.replies), base)
		}
		if d := asked.Daughters(dt.nLocal+target, nil); len(d) != 0 {
			t.Errorf("branch %d: the shared cell links to daughters %v", target, d)
		}
		o, rep := owner.Load(), dt.replies[0]
		if rep.t != o.local || rep.i != o.local.Find(asked.Key) {
			t.Fatalf("reply refers to cell %d of %p, want the owner's cell %d of %p", rep.i, rep.t, o.local.Find(asked.Key), o.local)
		}
		if c := rep.t.At(rep.i).Bare(); bitsOf(&c, 0, 0) != bitsOf(asked, 0, 0) {
			t.Errorf("the owner's cell %v is not the branch the top published", c.Key)
		}
		var check func(i int32)
		check = func(i int32) {
			c := rep.t.At(i)
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
		check(rep.i)
	})
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
					fetches := dt.Fetches()
					var st TraversalStats
					for _, g := range dt.local.Groups() {
						w, root := dt.walker(g), dt.walker(g)
						dt.walkTop(&w, &st)
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
					if dt.Fetches() != fetches {
						t.Errorf("%s: the top walks after the evaluation asked for %d more branches", where, dt.Fetches()-fetches)
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
					// A multipole is fetched when it lies in another rank's
					// tree, which a reply refers to.
					kind := map[*gravity.Multipole]int{}
					for _, rep := range dt.replies {
						for i := 0; i < rep.t.NumCells(); i++ {
							kind[&rep.t.At(int32(i)).Mp] = 3
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
// makespans 0.22804 and 0.11751 s before). Interactions and fetches did not
// move.
func TestSchedulePinnedAcrossTwoPassRewrite(t *testing.T) {
	ics := PlummerSphere(rand.New(rand.NewSource(43)), 2000, 1.0)
	for _, pin := range []struct {
		leaves                          bool
		fetches, interactions, messages int64
		makespan                        float64
	}{
		{false, 717, 6950842, 344, 0.22444557573022256},
		{true, 570, 3558151, 346, 0.11455440831101472},
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
