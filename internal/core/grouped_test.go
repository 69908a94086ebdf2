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

	"spacesim/internal/gravity"
	"spacesim/internal/gravity/seedref"
	"spacesim/internal/htree"
	"spacesim/internal/key"
	"spacesim/internal/mp"
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

	// One worker and hundreds of buckets, the worker held until the queue of
	// four is full: from then on the rank evaluates what does not fit itself.
	// Who evaluated a bucket shows in a counter and nowhere in the forces.
	many := PlummerSphere(rand.New(rand.NewSource(45)), 3000, 1.0)
	restore := holdPoolWorkers()
	var accW [2][]vec.V3
	var potW [2][]float64
	for i, workers := range []int{1, 8} {
		accW[i], potW[i] = make([]vec.V3, len(many)), make([]float64, len(many))
		st := mp.Run(testCluster(), 1, func(r *mp.Rank) {
			bodies, splitters, boxLo, boxSize := Decompose(r, append([]Body(nil), many...))
			dt := BuildDistributed(r, bodies, splitters, boxLo, boxSize, Options{Theta: 0.6, Eps: 0.02, Workers: workers})
			a, ph, _ := dt.ComputeForces(bodies)
			for j := range bodies {
				accW[i][bodies[j].ID], potW[i][bodies[j].ID] = a[j], ph[j]
			}
		})
		reg := st.Obs.Reg
		inline, jobs, buckets := reg.Counter("core.pool.inline_jobs").Value(), reg.Counter("core.pool.jobs").Value(), reg.Counter("core.buckets").Value()
		if jobs != buckets || inline > jobs || (workers == 1 && inline == 0) {
			t.Errorf("workers=%d: %d of %d buckets evaluated, %d of them by the rank; want all, and some by the rank on one worker",
				workers, jobs, buckets, inline)
		}
	}
	restore()
	for i := range accW[0] {
		if accW[0][i] != accW[1][i] || potW[0][i] != potW[1][i] {
			t.Fatalf("saturated queue: body %d differs: (%v, %v) on one worker, (%v, %v) on eight",
				i, accW[0][i], potW[0][i], accW[1][i], potW[1][i])
		}
	}

	// The pool evaluates while its rank walks on or serves fetches in
	// Quiesce. Eight ranks with four fifths of the bodies on rank 0 (the
	// decomposition balances work, so the first bodies in key order are made
	// cheap): the light ranks are through their walks long before rank 0
	// stops asking them for branches, and rank 0's pool runs while they wait
	// in Quiesce. At any width of the scheduler's pool, whatever runs beside
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
// gather, from the root on a fresh scratch — for tests to compare against.
func (dt *DTree) regather(w *bucketWalker) {
	w.begin()
	dt.local.Gather(&w.mac, w.sc, w)
}

// submit queues f, waiting for room: it holds a worker in
// TestEvalPoolRunsInlineWhenFull.
func (p *evalPool) submit(name string, f func()) {
	p.release()
	p.wg.Add(1)
	p.jobs <- poolJob{name, f}
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

func (o *topOpens) Layout() ([]htree.Cell, []int32, int32, []htree.Cell) {
	dt := o.dt
	return dt.top.cells, o.route, dt.nLocal + int32(len(dt.top.cells)), nil
}

func (o *topOpens) Open(i int32, c *htree.Cell) []gravity.Source {
	if j := i - o.dt.nLocal; c.Hi > c.Lo || o.dt.top.owner[j] < 0 || &o.dt.top.cells[j] != c {
		panic(fmt.Sprintf("oracle reached cell %d (%v), not a bare remote branch", i, c.Key))
	}
	o.opens = append(o.opens, i-o.dt.nLocal)
	return nil
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

// The slab's memory bound: what one evaluation fetches is resident until the
// next one starts and no longer. resetCaches empties the rank's fetched slab,
// releases the bodies it held, forgets the requests and drops the overlay's
// links into it, so a second evaluation on the same tree
// re-fetches exactly the same cells and reproduces the forces bit for bit —
// into the same storage, which the rank's fetch arena keeps, as it does for
// the next tree built on it.
// None of it touches the replicated top, which is the world's: an evaluation
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
		if len(dt.fetched) != 0 || len(dt.route) != len(dt.top.cells) {
			t.Errorf("rank %d: after the branch exchange the slab holds %d cells, the overlay %d entries for a top of %d",
				r.ID(), len(dt.fetched), len(dt.route), len(dt.top.cells))
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
			base := dt.nLocal + int32(len(dt.top.cells))
			for j, asked := range dt.asked {
				if asked && dt.route[j] < base {
					t.Errorf("rank %d: %s branch %v was asked for and is not resident", r.ID(), when, dt.top.cells[j].Key)
					return
				}
			}
		}
		sameStorage := func(when string, slab *htree.Cell) {
			if len(dt.fetched) == 0 || &dt.fetched[0] != slab {
				t.Errorf("rank %d: %s the slab of %d cells is not the arena's storage", r.ID(), when, len(dt.fetched))
			}
		}

		acc1, pot1, _ := dt.ComputeForces(bodies)
		n1, f1 := len(dt.fetched), dt.Fetches()
		if f1 == 0 || n1 == 0 || len(dt.bodies) == 0 {
			t.Errorf("rank %d: %d fetches left %d cells and %d leaves' bodies on the slab on %d ranks", r.ID(), f1, n1, len(dt.bodies), p)
		}
		var slab *htree.Cell
		if n1 > 0 {
			slab = &dt.fetched[0]
		}
		topUnwritten("during the first evaluation")
		drained("after the first evaluation")

		acc2, pot2, _ := dt.ComputeForces(bodies)
		if n2 := len(dt.fetched); n2 != n1 {
			t.Errorf("rank %d: slab grew across evaluations: %d -> %d cells", r.ID(), n1, n2)
		}
		sameStorage("in the second evaluation", slab)
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
		if len(dt.fetched) != 0 || len(dt.bodies) != 0 {
			t.Errorf("rank %d: slab not emptied: %d cells, %d leaves' bodies", r.ID(), len(dt.fetched), len(dt.bodies))
		}
		for _, b := range dt.bodies[:cap(dt.bodies)] {
			if b != nil {
				t.Errorf("rank %d: emptied slab still references fetched bodies", r.ID())
				break
			}
		}
		if len(dt.opens) != 0 || slices.Contains(dt.asked, true) {
			t.Errorf("rank %d: the reset left %d opens and requests marked", r.ID(), len(dt.opens))
		}
		for i, o := range dt.route {
			if o != route0[i] {
				t.Errorf("rank %d: overlay entry of %v is %d after the reset, %d after the branch exchange", r.ID(), dt.top.cells[i].Key, o, route0[i])
			}
		}

		dt = buildDistributed(r, bodies, splitters, boxLo, boxSize, opt, fa)
		if len(dt.fetched) != 0 {
			t.Errorf("rank %d: the next tree on the arena starts with %d cells on the slab", r.ID(), len(dt.fetched))
		}
		acc3, pot3, _ := dt.ComputeForces(bodies)
		if n3 := len(dt.fetched); n3 != n1 {
			t.Errorf("rank %d: the next tree on the same bodies fetched %d cells, the first %d", r.ID(), n3, n1)
		}
		sameStorage("on the next tree", slab)
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

// A warm step on many ranks allocates little: Run keeps each rank's slab,
// body-segment table, request flags and opens from step to step, and a reply
// refers to the owner's tree instead of copying it. Measured over the second
// step of an 8-rank run — Interrupt is polled on rank 0 between steps, when
// every rank is through the last evaluation — the step reads about 1.7 MB on
// amd64: the decomposition, the build, the outputs, the walkers, and about
// 870 fetches an evaluation with their ABM records. With one-level replies
// and a second walk of every group it read 2.7 MB, for 4500 fetches.
func TestWarmStepAllocatesLittle(t *testing.T) {
	skipUnderRace(t)
	ics := PlummerSphere(rand.New(rand.NewSource(46)), 4096, 1.0)
	var mark []uint64
	res := Run(RunConfig{
		Cluster: testCluster(), Procs: 8, Steps: 3, EngineWorkers: 1,
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
// them, and the one reply brings the owner's whole subtree below it: this
// rank's copy of the branch heads the slab, every slab cell is linked to all
// the daughters its ChildMask names or is a leaf carrying its bodies, and
// the slab holds exactly the owner's cells below the branch, key for key.
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

		base := dt.nLocal + int32(len(dt.top.cells))
		asked, copyAt := &dt.top.cells[target], dt.route[target]
		if copyAt != base || dt.fetched[0].Key != asked.Key {
			t.Errorf("branch %d: overlay leads to %d, want the copy at the head of the slab, %d", target, copyAt, base)
		}
		if d := asked.Daughters(dt.nLocal+target, nil); len(d) != 0 {
			t.Errorf("branch %d: the shared cell links to daughters %v", target, d)
		}
		keys := map[key.K]bool{}
		for i := range dt.fetched {
			c := &dt.fetched[i]
			keys[c.Key] = true
			if c.Leaf {
				if c.Hi != c.Lo+1 || len(dt.bodies[c.Lo]) != c.N {
					t.Errorf("slab leaf %v: segment %d:%d, %d bodies", c.Key, c.Lo, c.Hi, c.N)
				}
				continue
			}
			kids := c.Daughters(int32(i), nil)
			if len(kids) != bits.OnesCount8(c.ChildMask) {
				t.Errorf("slab cell %v: %d daughters linked, mask %08b", c.Key, len(kids), c.ChildMask)
			}
			for j, d := range kids {
				if k := dt.fetched[d].Key; k.Parent() != c.Key || (j > 0 && k <= dt.fetched[kids[j-1]].Key) {
					t.Errorf("slab cell %d (%v) is not the next daughter of %v", d, k, c.Key)
				}
			}
		}
		o := owner.Load()
		var below func(i int32) int
		below = func(i int32) int {
			c := o.local.At(i)
			if !keys[c.Key] {
				t.Errorf("owner's cell %v is not on the slab", c.Key)
			}
			m := 1
			for _, d := range c.Daughters(i, nil) {
				m += below(d)
			}
			return m
		}
		if m := below(o.local.Find(asked.Key)); m != len(dt.fetched) || len(keys) != len(dt.fetched) {
			t.Errorf("slab holds %d cells (%d keys), the owner's subtree %d", len(dt.fetched), len(keys), m)
		}
	})
}

// regatherForces re-walks every bucket of a finished evaluation — the same
// sink groups, over the slab they fetched — with the engine's own gather
// (regather) and evaluates the lists. With seed
// set it evaluates them the way the seed did: what the list refers to is
// copied out row by row, sorted by value, the list pointed at the copies —
// cells in sorted order, bodies as one sorted segment — and summed with the
// seed's arithmetic (gravity/seedref) in place of the kernels'.
func regatherForces(dt *DTree, bodies []Body, seed bool) ([]vec.V3, []float64) {
	acc := make([]vec.V3, len(bodies))
	pot := make([]float64, len(bodies))
	for _, c := range dt.local.Groups() {
		wk := dt.walker(c)
		w := &wk
		dt.regather(w)
		if !seed {
			dt.evalBucket(w, acc, pot)
			continue
		}
		var cells gravity.MultipoleSoA
		var srcs gravity.SoA
		for _, m := range w.sc.List.Cells {
			cells.Push(m)
		}
		for _, seg := range w.sc.List.Segs {
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

// The top walks fetch exactly what the groups open. Over theta, rank counts
// and Plummer and uniform bodies: the branches each group's top walk lists
// are, group after group, those the walk loop itself reaches without
// accepting when no remote branch is resident (the topOpens oracle); the
// branches the rank asked for are their union; and the evaluation and every
// group's walk after it gather with no miss. Theta 3 is there because only
// that far out does a top walk that accepted a fill over its group's own
// key (Gather never does) miss a branch, and panic. On several ranks the
// lists mix local cells, fills, other ranks' branches and fetched cells, and
// every kind is checked to appear.
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
					kind := func(m *gravity.Multipole) int {
						for j := range dt.top.cells {
							if m == &dt.top.cells[j].Mp {
								return 1 + int(min(dt.top.owner[j]+1, 1))
							}
						}
						for j := range dt.fetched {
							if m == &dt.fetched[j].Mp {
								return 3
							}
						}
						return 0
					}
					for _, g := range groups {
						w := dt.walker(g)
						dt.regather(&w)
						for _, m := range w.sc.List.Cells {
							kinds[kind(m)].Add(1)
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

// More ranks than bodies: ranks without bodies only serve, and the slab of a
// rank that has some is built from a handful of deep branches.
func TestMoreRanksThanBodies(t *testing.T) {
	for _, n := range []int{1, 2, 3, 9} {
		for _, engineWorkers := range []int{0, 1} {
			ics := PlummerSphere(rand.New(rand.NewSource(44)), n, 1.0)
			res := Run(RunConfig{
				Cluster: testCluster(), Procs: 8, Steps: 2,
				Opt:           Options{Theta: 0.6, Eps: 0.02, DT: 0.005},
				EngineWorkers: engineWorkers,
			}, ics)
			if res.Err != nil || res.CompletedSteps != 2 {
				t.Errorf("n=%d engine-workers=%d: err %v after %d steps", n, engineWorkers, res.Err, res.CompletedSteps)
			}
		}
	}
}

// The schedule pin: the virtual makespan and every count of a
// reproducible-mode run (event engine, one engine worker), one walker per
// leaf and one per sink group. Recorded at 0b4a841 for the one-pass walk and
// held through the two-pass rewrite; the group pin re-recorded when the walk
// went to groups and when local leaves were tested like remote ones; both
// re-pinned once when replies brought whole subtrees and each group came to
// be walked once (fetches 7835 and 3130, messages 1140 and 824, makespans
// 0.3966 and 0.2657 s before). Interactions did not move.
func TestSchedulePinnedAcrossTwoPassRewrite(t *testing.T) {
	ics := PlummerSphere(rand.New(rand.NewSource(43)), 2000, 1.0)
	for _, pin := range []struct {
		leaves                          bool
		fetches, interactions, messages int64
		makespan                        float64
	}{
		{false, 717, 6950842, 464, 0.22804403323169442},
		{true, 570, 3558151, 464, 0.11750740052966605},
	} {
		if pin.leaves {
			leafGroups(t)
		}
		res := Run(RunConfig{
			Cluster: testCluster(), Procs: 4, Steps: 3,
			Opt:           Options{Theta: 0.6, Eps: 0.02, DT: 0.005},
			Engine:        mp.EngineEvent,
			EngineWorkers: 1,
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

// run hands a job to the pool while the queue has room and calls it on the
// spot when it has not: with the one worker held inside a job, four more fit
// the queue and the fifth runs before run returns.
func TestEvalPoolRunsInlineWhenFull(t *testing.T) {
	ics := PlummerSphere(rand.New(rand.NewSource(39)), 50, 1.0)
	mp.Run(testCluster(), 1, func(r *mp.Rank) {
		bodies, splitters, boxLo, boxSize := Decompose(r, ics)
		dt := BuildDistributed(r, bodies, splitters, boxLo, boxSize, Options{Theta: 0.6, Eps: 0.02})
		pool := dt.newEvalPool(1)
		defer pool.close()
		started, release := make(chan struct{}), make(chan struct{})
		pool.submit("hold", func() { close(started); <-release })
		<-started
		var ran atomic.Int32
		for i := 0; i < cap(pool.jobs); i++ {
			if !pool.run("queued", func() { ran.Add(1) }) {
				t.Errorf("job %d ran on the caller with room in the queue", i)
			}
		}
		if n := ran.Load(); n != 0 {
			t.Errorf("%d queued jobs ran while the worker was held", n)
		}
		if pool.run("inline", func() { ran.Add(100) }) || ran.Load() != 100 {
			t.Errorf("job offered to a full queue: ran counter %d, want it run on the caller before run returned", ran.Load())
		}
		close(release)
		pool.wait()
		if n := ran.Load(); n != 100+int32(cap(pool.jobs)) {
			t.Errorf("ran counter %d after wait, want %d", n, 100+cap(pool.jobs))
		}
	})
}

// Exercises the grouped engine's worker pool across multiple steps and
// ranks; run under `go test -race` this checks the pool's sharing discipline
// (workers write only disjoint output ranges and their own scratch).
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

func rmsAccErr(got, ref []vec.V3) float64 {
	var sum2, ref2 float64
	for i := range ref {
		sum2 += got[i].Sub(ref[i]).Norm2()
		ref2 += ref[i].Norm2()
	}
	return math.Sqrt(sum2 / ref2)
}
