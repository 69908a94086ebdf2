package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"spacesim/internal/gravity"
	"spacesim/internal/htree"
	"spacesim/internal/key"
	"spacesim/internal/machine"
	"spacesim/internal/mp"
	"spacesim/internal/netsim"
	"spacesim/internal/pario"
	"spacesim/internal/vec"
)

// The probes time one public entry point of one layer each, in the parent
// process after every child has ended, on the workload's own bodies and
// options. They are per-layer figures only: no end-to-end metric is built
// from them.

// timeReps calls fn reps times and returns each call's seconds.
func timeReps(reps int, fn func()) []float64 {
	out := make([]float64, reps)
	for i := range out {
		t0 := time.Now()
		fn()
		out[i] = time.Since(t0).Seconds()
	}
	return out
}

// probeSet collects probe results: the median goes to the metric, the
// summary (median, tail percentile, count) to the samples.
type probeSet struct {
	m       map[string]float64
	samples map[string]summary
}

// record stores times (seconds per repetition) as name, scaled so one
// repetition of `per` units at t seconds reads t*scale/per.
func (ps probeSet) record(name string, times []float64, scale, per float64) {
	xs := make([]float64, len(times))
	for i, t := range times {
		xs[i] = t * scale / per
	}
	s := summarize(xs)
	ps.m[name] = s.Median
	ps.samples[name] = s
}

// probeBodies returns the positions and masses the workload's layers see,
// and the opening angle and softening its tree walk uses.
func probeBodies(w workload, p runParams) (pos []vec.V3, mass []float64, theta, eps float64, err error) {
	if w.isSPH() {
		s := newSPH(w, p)
		return s.P.Pos, s.P.Mass, s.Cfg.GravTheta, s.Cfg.GravEps, nil
	}
	ics, _, err := newNBody(w, p)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	pos = make([]vec.V3, len(ics))
	mass = make([]float64, len(ics))
	for i, b := range ics {
		pos[i], mass[i] = b.Pos, b.Mass
	}
	return pos, mass, nbTheta, nbEps, nil
}

// runProbes fills every probe metric. listBodies and listCells are the
// median interaction-list lengths the workload's own run recorded; the
// list-sort probe sorts lists of that size.
func runProbes(w workload, p runParams, listBodies, listCells int, scratch string) (map[string]float64, map[string]summary, error) {
	ps := probeSet{m: map[string]float64{}, samples: map[string]summary{}}
	pos, mass, theta, eps, err := probeBodies(w, p)
	if err != nil {
		return nil, nil, err
	}
	n := len(pos)
	fn := float64(n)

	// key: position -> Morton key, and the key sort behind every build.
	lo, size := htree.BoundingCube(pos)
	keys := make([]key.K, n)
	ps.record("key.from_position_ns_per_body", timeReps(20, func() {
		for i := range pos {
			keys[i] = key.FromPosition(pos[i], lo, size)
		}
	}), 1e9, fn)
	var sorter key.Sorter
	ps.record("key.sort_ns_per_key", timeReps(20, func() { sorter.SortPerm(keys, 1) }), 1e9, fn)

	// htree: build with a reused arena at the workload's bucket size, then
	// the shared-memory grouped walk on one worker.
	arena := &htree.Arena{}
	var tree *htree.Tree
	build := func() {
		tree, err = htree.Build(pos, mass, htree.Options{MaxLeaf: w.MaxLeaf, Workers: 1, Arena: arena})
	}
	build() // the first build sizes the arena
	if err != nil {
		return nil, nil, fmt.Errorf("htree.Build: %w", err)
	}
	ps.record("htree.build_ns_per_body", timeReps(10, build), 1e9, fn)
	if err != nil {
		return nil, nil, fmt.Errorf("htree.Build: %w", err)
	}
	ps.m["htree.cells_per_body"] = float64(tree.NumCells()) / fn
	var ws htree.WalkStats
	walk := timeReps(3, func() { _, _, ws = tree.AccelAllGrouped(theta, eps, false, gravity.Float64, 1) })
	ints := float64(ws.BodyInteractions + ws.CellInteractions)
	ps.record("htree.walk_ns_per_interaction", walk, 1e9, ints)
	ps.m["htree.interactions_per_body"] = ints / fn
	ps.m["htree.cells_opened_per_body"] = float64(ws.CellsOpened) / fn

	gravityProbes(ps, pos, mass, eps, listBodies, listCells)
	if err := mpProbes(ps, w); err != nil {
		return nil, nil, err
	}
	if err := parioProbe(ps, scratch); err != nil {
		return nil, nil, err
	}
	return ps.m, ps.samples, nil
}

// Kernel probe shapes: one leaf bucket of sinks against one L1-sized tile
// of sources — the block shape the batched kernels are tuned for.
const (
	probeSinks     = 16
	probeBodyTile  = 1024
	probeCellTile  = 384
	probeKernelRep = 500
)

func gravityProbes(ps probeSet, pos []vec.V3, mass []float64, eps float64, listBodies, listCells int) {
	n := len(pos)
	rng := rand.New(rand.NewSource(1))
	pick := func() int { return rng.Intn(n) }

	sx, sy, sz := make([]float64, probeSinks), make([]float64, probeSinks), make([]float64, probeSinks)
	ax, ay, az, pot := make([]float64, probeSinks), make([]float64, probeSinks), make([]float64, probeSinks), make([]float64, probeSinks)
	for j := range sx {
		q := pos[pick()]
		sx[j], sy[j], sz[j] = q[0], q[1], q[2]
	}
	fillBodies := func(s *gravity.SoA, k int) {
		s.Reset()
		for i := 0; i < k; i++ {
			j := pick()
			s.Push(pos[j], mass[j])
		}
	}
	// A cell on the list is the multipole of a small clump of bodies.
	fillCells := func(c *gravity.MultipoleSoA, k int) {
		c.Reset()
		for i := 0; i < k; i++ {
			j := pick()
			lo := j - j%8
			hi := lo + 8
			if hi > n {
				lo, hi = n-8, n
			}
			if lo < 0 {
				lo = 0
			}
			m := gravity.FromBodies(pos[lo:hi], mass[lo:hi])
			c.Push(&m)
		}
	}

	var ev gravity.Evaluator
	ev.Eps = eps
	var bodies, noBodies gravity.SoA
	var cells, noCells gravity.MultipoleSoA
	fillBodies(&bodies, probeBodyTile)
	fillCells(&cells, probeCellTile)

	bodyInts := float64(probeSinks * probeBodyTile)
	bodyT := timeReps(probeKernelRep, func() { ev.EvalList(&noCells, &bodies, sx, sy, sz, ax, ay, az, pot) })
	ps.record("gravity.body_kernel_ns_per_interaction", bodyT, 1e9, bodyInts)
	ps.m["gravity.body_kernel_mflops"] = ratio(gravity.KernelFlops*bodyInts/1e6, median(bodyT))
	// Computed, not measured: flops over the bytes of the operand arrays
	// (four source arrays read, three sink arrays read, four accumulators
	// read and written).
	bytes := 8.0 * (4*probeBodyTile + 3*probeSinks + 2*4*probeSinks)
	ps.m["gravity.body_kernel_flops_per_byte"] = gravity.KernelFlops * bodyInts / bytes

	cellT := timeReps(probeKernelRep, func() { ev.EvalList(&cells, &noBodies, sx, sy, sz, ax, ay, az, pot) })
	ps.record("gravity.cell_kernel_ns_per_interaction", cellT, 1e9, float64(probeSinks*probeCellTile))

	// The canonical list sort that runs on every multi-rank bucket list,
	// on lists as long as the workload's median list.
	if listBodies+listCells > 0 {
		var sb gravity.SoA
		var sc gravity.MultipoleSoA
		const sortReps = 200
		times := make([]float64, sortReps)
		for i := range times {
			fillBodies(&sb, listBodies)
			fillCells(&sc, listCells)
			t0 := time.Now()
			sb.Sort()
			sc.Sort()
			times[i] = time.Since(t0).Seconds()
		}
		ps.record("gravity.list_sort_ns_per_entry", times, 1e9, float64(listBodies+listCells))
	} else {
		ps.m["gravity.list_sort_ns_per_entry"] = 0
	}

	// The scalar reference kernel the force check uses.
	src := make([]gravity.Source, n)
	for i := range src {
		src[i] = gravity.Source{Pos: pos[i], Mass: mass[i]}
	}
	ps.record("gravity.direct_ns_per_interaction", timeReps(40, func() {
		a, _ := gravity.KernelLibm(pos[pick()], src, eps*eps)
		sinkAcc = a
	}), 1e9, float64(n))
}

// sinkAcc keeps the reference kernel's result alive.
var sinkAcc vec.V3

// mpProbes time the message layer under the workload's engine settings
// and rank count. On one rank there is no message layer to time.
func mpProbes(ps probeSet, w workload) error {
	for _, name := range []string{"mp.allreduce_host_ns", "mp.allreduce_virtual_s", "mp.pingpong_host_ns_per_msg", "mp.abm_request_host_ns"} {
		ps.m[name] = 0
	}
	if w.Procs < 2 {
		return nil
	}
	cl := machine.SpaceSimulator(netsim.ProfileLAM)
	opt := w.runOptions()

	const allreduces = 1000
	t0 := time.Now()
	st := mp.RunWith(cl, w.Procs, opt, func(r *mp.Rank) {
		for i := 0; i < allreduces; i++ {
			r.AllreduceScalar(float64(r.ID()), mp.OpSum)
		}
	})
	if st.Err != nil {
		return fmt.Errorf("allreduce probe: %w", st.Err)
	}
	ps.m["mp.allreduce_host_ns"] = float64(time.Since(t0).Nanoseconds()) / allreduces
	ps.m["mp.allreduce_virtual_s"] = st.ElapsedVirtual / allreduces

	const trips = 20000
	t0 = time.Now()
	st = mp.RunWith(cl, 2, opt, func(r *mp.Rank) {
		peer := 1 - r.ID()
		for i := 0; i < trips; i++ {
			if r.ID() == 0 {
				r.Send(peer, 7, nil, 8)
				r.Recv(peer, 7)
			} else {
				r.Recv(peer, 7)
				r.Send(peer, 7, nil, 8)
			}
		}
	})
	if st.Err != nil {
		return fmt.Errorf("ping-pong probe: %w", st.Err)
	}
	ps.m["mp.pingpong_host_ns_per_msg"] = float64(time.Since(t0).Nanoseconds()) / (2 * trips)

	// Batched active-message round trips, the fetch path's transport:
	// rank 0 asks, rank 1 serves, both poll until the traffic quiesces.
	const requests = 20000
	t0 = time.Now()
	st = mp.RunWith(cl, 2, opt, func(r *mp.Rank) {
		abm := mp.NewABM(r)
		abm.Handle(1, func(src int, req any) (any, int64) { return req, 8 })
		if r.ID() == 0 {
			got := 0
			for i := 0; i < requests; i++ {
				abm.Request(1, 1, i, 8, func(any) { got++ })
				if i%64 == 63 {
					abm.Poll()
				}
			}
		}
		abm.Quiesce()
	})
	if st.Err != nil {
		return fmt.Errorf("ABM probe: %w", st.Err)
	}
	ps.m["mp.abm_request_host_ns"] = float64(time.Since(t0).Nanoseconds()) / requests
	return nil
}

// parioProbe writes and reads back one rank's checkpoint stripe: 4096
// bodies of 12 float64 each, in a scratch directory inside the checkout.
func parioProbe(ps probeSet, scratch string) error {
	const stripeFloats = 4096 * 12
	dir := filepath.Join(scratch, "pario-probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	data := make([]float64, stripeFloats)
	rng := rand.New(rand.NewSource(2))
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	var path string
	var err error
	wt := timeReps(20, func() {
		var e error
		if path, e = pario.WriteStripe(dir, "probe", 0, data); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("pario write: %w", err)
	}
	rt := timeReps(20, func() {
		if _, e := pario.ReadStripe(path, 0); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("pario read: %w", err)
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	mb := float64(info.Size()) / 1e6
	ps.m["pario.stripe_bytes"] = float64(info.Size())
	ps.m["pario.write_mb_per_s"] = mb / median(wt)
	ps.m["pario.read_mb_per_s"] = mb / median(rt)
	ps.samples["pario.write_s"] = summarize(wt)
	ps.samples["pario.read_s"] = summarize(rt)
	return nil
}
