package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"runtime/debug"
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

	// Pass 2 runs on the pool while the rank serves fetches in Quiesce. Eight
	// ranks with four fifths of the bodies on rank 0 (the decomposition
	// balances work, so the first bodies in key order are made cheap): the
	// light ranks are through pass 1 and into pass 2 long before rank 0 stops
	// asking them for cells, and rank 0's own pass 2 runs while they wait in
	// Quiesce. At any width of the scheduler's pool, whatever runs beside
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

// waitingOn returns the walkers waiting on slab cell i, in the order they
// asked.
func (dt *DTree) waitingOn(i int32) []*bucketWalker {
	var ws []*bucketWalker
	if j := int(i - dt.nLocal); j < len(dt.waiting) {
		for n := dt.waiting[j].head; n >= 0; n = dt.waiters[n].next {
			ws = append(ws, dt.waiters[n].w)
		}
	}
	return ws
}

// Pass 2 hands the slab to the pool on the strength of one fact: no request
// is outstanding, so nothing can write it. A rank that reaches pass 2 with a
// fetch still in flight must say so, not race.
func TestSecondPassRefusesOutstandingFetch(t *testing.T) {
	ics := PlummerSphere(rand.New(rand.NewSource(38)), 300, 1.0)
	mp.Run(testCluster(), 1, func(r *mp.Rank) {
		bodies, splitters, boxLo, boxSize := Decompose(r, ics)
		dt := BuildDistributed(r, bodies, splitters, boxLo, boxSize, Options{Theta: 0.6, Eps: 0.02})
		dt.inFlight = 1 // a request no reply will ever clear
		defer func() {
			if e, want := fmt.Sprint(recover()), "starts pass 2 with 1 cells being fetched"; !strings.Contains(e, want) {
				t.Errorf("ComputeForces with a fetch in flight: recovered %q, want a panic saying %q", e, want)
			}
		}()
		dt.ComputeForces(bodies)
	})
}

// The slab's memory bound: what one evaluation fetches is resident until the
// next one starts and no longer. resetCaches empties the rank's fetched slab,
// releases the bodies it held and the walkers that waited, and drops the
// overlay's links into it, so a second evaluation on the same tree
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
			if dt.inFlight != 0 {
				t.Errorf("rank %d: %s %d cells in flight", r.ID(), when, dt.inFlight)
			}
			for j, l := range dt.waiting {
				if l.head >= 0 {
					t.Errorf("rank %d: %s slab cell %d has waiters", r.ID(), when, dt.nLocal+int32(j))
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
		for _, w := range dt.waiters[:cap(dt.waiters)] {
			if w.w != nil {
				t.Errorf("rank %d: emptied waiter table still references walkers", r.ID())
				break
			}
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
// its walkers and little else (hundreds of MB before the two-pass walk).
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

// The fetch path allocates next to nothing per fetch once a rank is warm:
// Run keeps each rank's slab, body-segment table and waiter lists from step
// to step, and a reply refers to the owner's tree instead of copying it.
// Measured over the second step of an 8-rank run — Interrupt is polled on
// rank 0 between steps, when every rank is through the last evaluation —
// and divided by the fetches of the mean evaluation, the whole step reads
// ~550 B a fetch on amd64. About 200 B of it is the fetch path (the ABM's
// request record and continuation, the boxed key and reply), the rest the
// decomposition, the build and the outputs. With the slab regrown every
// step, every reply copied and a map of waiter slices it read ~1600 B.
func TestWarmStepAllocatesLittlePerFetch(t *testing.T) {
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
	perEval := float64(res.Fetches) / 4
	if b := float64(mark[2]-mark[1]) / perEval; b > 800 {
		t.Errorf("the second step allocated %.0f B per fetch (%.0f fetches an evaluation), want <= 800", b, perEval)
	}
}

// Two walkers requesting the same remote cell must trigger exactly one ABM
// request; the second walker just joins the waiter list and both are
// resumed when the one reply arrives.
func TestFetchDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const n = 300
	ics := PlummerSphere(rng, n, 1.0)
	const p = 2
	mp.Run(testCluster(), p, func(r *mp.Rank) {
		lo, hi := n*r.ID()/p, n*(r.ID()+1)/p
		local := append([]Body(nil), ics[lo:hi]...)
		bodies, splitters, boxLo, boxSize := Decompose(r, local)
		dt := BuildDistributed(r, bodies, splitters, boxLo, boxSize, Options{Theta: 0.5, Eps: 0.02})
		if r.ID() != 0 {
			// Serve rank 0's requests until global quiescence.
			dt.abm.Quiesce()
			return
		}
		// First remote-owned internal cell of the top: deterministic pick.
		target := int32(-1)
		for i, o := range dt.top.owner {
			if o >= 0 && int(o) != r.ID() && !dt.top.cells[i].Leaf {
				target = dt.nLocal + int32(i)
				break
			}
		}
		if target == -1 {
			t.Error("no remote-owned internal cells on 2 ranks")
			dt.abm.Quiesce()
			return
		}
		var st TraversalStats
		var resumed []*bucketWalker
		ats := []int32{}
		resume := func(w *bucketWalker, _ *htree.Cell, at int32) { resumed = append(resumed, w); ats = append(ats, at) }
		k := dt.top.cells[target-dt.nLocal].Key
		w1, w2 := new(bucketWalker), new(bucketWalker)
		dt.requestCell(target, k, &st, w1, resume)
		dt.requestCell(target, k, &st, w2, resume)
		if dt.Fetches() != 1 || st.Fetches != 1 {
			t.Errorf("two concurrent requests issued %d fetches (stats %d), want 1", dt.Fetches(), st.Fetches)
		}
		if ws := dt.waitingOn(target); len(ws) != 2 || ws[0] != w1 || ws[1] != w2 || dt.inFlight != 1 {
			t.Errorf("waiter list has %d entries, %d cells in flight; want the two walkers in the order they asked, one cell", len(ws), dt.inFlight)
		}
		dt.abm.Quiesce()
		if len(resumed) != 2 || resumed[0] != w1 || resumed[1] != w2 {
			t.Errorf("%d walkers resumed, want 2 in the order they asked", len(resumed))
		}
		if ws := dt.waitingOn(target); len(ws) != 0 || dt.inFlight != 0 {
			t.Errorf("waiter tables not drained: %d waiting, %d in flight", len(ws), dt.inFlight)
		}
		// The reply is resident: this rank's copy of the cell that was asked
		// for heads its own slab, indexed behind the top and linked from the
		// overlay, and the children follow it side by side, linked from the
		// copy — not from the top's cell, which is everybody's.
		base := dt.nLocal + int32(len(dt.top.cells))
		asked, copyAt := &dt.top.cells[target-dt.nLocal], dt.route[target-dt.nLocal]
		fetched := func(i int32) *htree.Cell { return &dt.fetched[i-base] }
		if copyAt != base || fetched(copyAt).Key != asked.Key {
			t.Errorf("cell %d: overlay leads to %d, want the copy at the head of the slab, %d", target, copyAt, base)
		}
		if d := asked.Daughters(target, nil); len(d) != 0 {
			t.Errorf("cell %d: the shared cell links to daughters %v", target, d)
		}
		kids := fetched(copyAt).Daughters(copyAt, nil)
		if len(kids) != bits.OnesCount8(asked.ChildMask) || int(base)+len(dt.fetched) != int(copyAt)+1+len(kids) {
			t.Errorf("children of cell %d: %v, slab [%d,%d)", target, kids, base, int(base)+len(dt.fetched))
		}
		for j, prev := range kids {
			if c := fetched(prev); prev != copyAt+1+int32(j) || c.Key.Parent() != asked.Key || (j > 0 && c.Key <= fetched(kids[j-1]).Key) {
				t.Errorf("slab cell %d (%v) is not the next daughter of %v", prev, c.Key, asked.Key)
			}
		}
		for _, at := range ats {
			if at != copyAt {
				t.Errorf("a walker resumed at %d, the copy is at %d", at, copyAt)
			}
		}
	})
}

// regatherForces re-walks every bucket of a finished evaluation — the same
// sink groups, over the slab they fetched — with the engine's own resident
// walk (pass 2's) and evaluates the lists. With seed
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

// A bucket whose walk never suspended is evaluated from its pass-1 list; one
// that did is gathered again by pass 2. Both lists are the depth-first walk
// of the same resident tree, so re-gathering every bucket after the fact
// reproduces the engine's forces bit for bit, whichever pass produced them.
func TestDirectEqualsSecondPass(t *testing.T) {
	const n, p = 1500, 3
	ics := PlummerSphere(rand.New(rand.NewSource(37)), n, 1.0)
	st := mp.Run(testCluster(), p, func(r *mp.Rank) {
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
	direct := st.Obs.Reg.Counter("core.walk.direct").Value()
	second := st.Obs.Reg.Counter("core.walk.second_pass").Value()
	if direct == 0 || second == 0 || direct+second != st.Obs.Reg.Counter("core.buckets").Value() {
		t.Errorf("walks: %d direct + %d second pass of %d buckets; want both kinds", direct, second, st.Obs.Reg.Counter("core.buckets").Value())
	}
}

// The count-only mode of the one walk loop, across ranks: after an
// evaluation every group is walked again over the resident slab, once
// gathering its list and once only counting, and the tallies equal the
// list's lengths. On several ranks the lists mix local cells, fills, other
// ranks' branches and fetched cells, and every kind is checked to appear.
func TestCountOnlyMatchesListAcrossRanks(t *testing.T) {
	const n = 1500
	ics := PlummerSphere(rand.New(rand.NewSource(7)), n, 1.0)
	for _, p := range []int{1, 3, 8} {
		var kinds [4]atomic.Int64 // local, top fill, top branch, fetched
		mp.Run(testCluster(), p, func(r *mp.Rank) {
			lo, hi := n*r.ID()/p, n*(r.ID()+1)/p
			bodies, splitters, boxLo, boxSize := Decompose(r, append([]Body(nil), ics[lo:hi]...))
			dt := BuildDistributed(r, bodies, splitters, boxLo, boxSize, Options{Theta: 0.7, Eps: 0.01})
			dt.ComputeForces(bodies)
			if dt.local == nil {
				return
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
			count := htree.BucketScratch{CountOnly: true}
			for _, g := range dt.local.Groups() {
				w := dt.walker(g)
				dt.regather(&w)
				count.Reset()
				count.Push(dt.route[0])
				dt.local.Gather(&w.mac, &count, &w)
				l := &w.sc.List
				if count.NCells != len(l.Cells) || count.NSrcs != l.Bodies() || count.NSegs != len(l.Segs) {
					t.Errorf("p=%d rank %d group %v: counted %d cells + %d bodies in %d segments, list holds %d + %d in %d",
						p, r.ID(), g.Key, count.NCells, count.NSrcs, count.NSegs, len(l.Cells), l.Bodies(), len(l.Segs))
					return
				}
				if len(count.List.Cells) != 0 || len(count.List.Segs) != 0 {
					t.Errorf("p=%d rank %d group %v: count-only walk appended to the list", p, r.ID(), g.Key)
					return
				}
				for _, m := range l.Cells {
					kinds[kind(m)].Add(1)
				}
			}
		})
		for k, name := range []string{"local cells", "fills", "other ranks' branches", "fetched cells"} {
			if got := kinds[k].Load(); (got == 0) != (p == 1 && k > 0) {
				t.Errorf("p=%d: %d %s on the lists", p, got, name)
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

// The schedule pin: pass 1 is the same message DAG as the one-pass walk it
// replaced — same stack discipline, fetches, dedup and charge points — so
// the virtual makespan and every count of a reproducible-mode run (event
// engine, one engine worker) one walker per leaf equal the values recorded at
// the parent commit 0b4a841, before the two-pass walk was written. One walker
// per sink group has its own, recorded when the walk went to groups and
// again when local leaves were tested like remote ones and groups grew to 80
// bodies.
func TestSchedulePinnedAcrossTwoPassRewrite(t *testing.T) {
	ics := PlummerSphere(rand.New(rand.NewSource(43)), 2000, 1.0)
	for _, pin := range []struct {
		leaves                          bool
		fetches, interactions, messages int64
		makespan                        float64
	}{
		{false, 7835, 6950842, 1140, 0.396624630252577},
		{true, 3130, 3558151, 824, 0.2657051716832888},
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
