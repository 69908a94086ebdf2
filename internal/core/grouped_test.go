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

	// One worker and hundreds of buckets: the rank gathers lists several times
	// faster than the worker evaluates them, the queue of four fills, and from
	// then on the rank evaluates what does not fit itself. Who evaluated a
	// bucket shows in a counter and nowhere in the forces.
	many := PlummerSphere(rand.New(rand.NewSource(45)), 3000, 1.0)
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

func positions(bodies []Body) []vec.V3 {
	pos := make([]vec.V3, len(bodies))
	for i := range bodies {
		pos[i] = bodies[i].Pos
	}
	return pos
}

// Pass 2 hands the slab to the pool on the strength of one fact: no request
// is outstanding, so nothing can write it. A rank that reaches pass 2 with a
// fetch still in flight must say so, not race.
func TestSecondPassRefusesOutstandingFetch(t *testing.T) {
	ics := PlummerSphere(rand.New(rand.NewSource(38)), 300, 1.0)
	mp.Run(testCluster(), 1, func(r *mp.Rank) {
		bodies, splitters, boxLo, boxSize := Decompose(r, ics)
		dt := BuildDistributed(r, bodies, splitters, boxLo, boxSize, Options{Theta: 0.6, Eps: 0.02})
		dt.fetching[-1] = nil // a request no reply will ever clear
		defer func() {
			if e, want := fmt.Sprint(recover()), "starts pass 2 with 1 cells being fetched"; !strings.Contains(e, want) {
				t.Errorf("ComputeForces with a fetch in flight: recovered %q, want a panic saying %q", e, want)
			}
		}()
		dt.ComputeForces(bodies)
	})
}

// The slab's memory bound: what one evaluation fetches is resident until the
// next one starts and no longer. resetCaches empties the rank's slab and
// clears what replies hung on its overlay, so a second evaluation on the same
// tree re-fetches exactly the same cells and reproduces the forces bit for
// bit. None of it touches the replicated top, which is the world's: an
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
		dt := BuildDistributed(r, bodies, splitters, boxLo, boxSize, Options{Theta: 0.5, Eps: 0.02})
		if len(dt.cells) != 0 || len(dt.over) != len(dt.top) {
			t.Errorf("rank %d: after the branch exchange the slab holds %d cells, the overlay %d entries for a top of %d",
				r.ID(), len(dt.cells), len(dt.over), len(dt.top))
		}
		top0 := make([]cellBits, len(dt.top))
		for i := range dt.top {
			top0[i] = bitsOf(&dt.top[i])
		}
		topUnwritten := func(when string) {
			for i := range dt.top {
				if got := bitsOf(&dt.top[i]); got != top0[i] {
					t.Errorf("rank %d: top cell %d (%v) changed %s", r.ID(), i, dt.top[i].Key, when)
					return
				}
			}
		}

		acc1, pot1, _ := dt.ComputeForces(bodies)
		n1, f1 := len(dt.cells), dt.Fetches()
		if f1 == 0 || n1 == 0 {
			t.Errorf("rank %d: %d fetches left %d cells on the slab on %d ranks", r.ID(), f1, n1, p)
		}
		topUnwritten("during the first evaluation")

		acc2, pot2, _ := dt.ComputeForces(bodies)
		if n2 := len(dt.cells); n2 != n1 {
			t.Errorf("rank %d: slab grew across evaluations: %d -> %d cells", r.ID(), n1, n2)
		}
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
		if len(dt.cells) != 0 {
			t.Errorf("rank %d: slab not emptied: %d cells", r.ID(), len(dt.cells))
		}
		for i, res := range dt.over {
			if res.child != 0 || res.bodies != nil {
				t.Errorf("rank %d: branch %v keeps a child link or bodies after the reset", r.ID(), dt.top[i].Key)
			}
		}
		for _, c := range dt.cells[:cap(dt.cells)] {
			if c.bodies != nil {
				t.Errorf("rank %d: emptied slab still references fetched bodies", r.ID())
				break
			}
		}
	})
}

// With every bucket's list recycled through one scratch instead of being
// kept until the end, a warm single-rank evaluation allocates its outputs,
// its walkers and little else (hundreds of MB before the two-pass walk).
func TestWarmEvaluationAllocatesLittle(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("under the race detector sync.Pool drops a quarter of its Puts")
			}
		}
	}
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
		for i := range dt.top {
			if c := &dt.top[i]; c.Owner >= 0 && c.Owner != r.ID() && !c.Leaf {
				target = int32(i)
				break
			}
		}
		if target == -1 {
			t.Error("no remote-owned internal cells on 2 ranks")
			dt.abm.Quiesce()
			return
		}
		var st TraversalStats
		calls := 0
		resume := func(*bucketWalker, int32) { calls++ }
		dt.requestCell(target, &st, new(bucketWalker), resume)
		dt.requestCell(target, &st, new(bucketWalker), resume)
		if dt.Fetches() != 1 || st.Fetches != 1 {
			t.Errorf("two concurrent requests issued %d fetches (stats %d), want 1", dt.Fetches(), st.Fetches)
		}
		if len(dt.fetching[target]) != 2 {
			t.Errorf("waiter list has %d entries, want 2", len(dt.fetching[target]))
		}
		dt.abm.Quiesce()
		if calls != 2 {
			t.Errorf("%d walkers resumed, want 2", calls)
		}
		if len(dt.fetching) != 0 {
			t.Errorf("fetching map not drained: %d in flight", len(dt.fetching))
		}
		// The reply is resident: children side by side on the rank's own slab,
		// indexed behind the top, linked from the overlay entry of the cell
		// that was asked for — not from the cell, which is everybody's.
		asked, res := dt.at(target)
		if res != &dt.over[target] || dt.top[target].child != 0 {
			t.Errorf("cell %d: the link to its children is not on the overlay (shared cell has child %d)", target, dt.top[target].child)
		}
		lo32 := res.child
		hi32 := lo32 + int32(bits.OnesCount8(asked.ChildMask))
		if int(lo32) != len(dt.top) || int(hi32) != len(dt.top)+len(dt.cells) || hi32 == lo32 {
			t.Errorf("children of cell %d at [%d,%d), slab [%d,%d)", target, lo32, hi32, len(dt.top), len(dt.top)+len(dt.cells))
		}
		for j, prev := lo32, key.K(0); j < hi32; j++ {
			c, _ := dt.at(j)
			if c != &dt.cells[int(j)-len(dt.top)].cellInfo || c.Key.Parent() != asked.Key || c.Key <= prev {
				t.Errorf("slab cell %d (%v) is not the next daughter of %v", j, c.Key, asked.Key)
			}
			prev = c.Key
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
		w := &bucketWalker{cell: c, mac: htree.NewGroupMAC(c, dt.opt.Theta)}
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
