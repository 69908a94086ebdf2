package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"spacesim/internal/mp"
	"spacesim/internal/obs"
	"spacesim/internal/vec"
)

// The physics must not depend on how the scheduler runs the ranks: an
// 8-rank treecode slice produces bit-identical positions and velocities, and
// every rank clock, at any width of the pool (GOMAXPROCS), with tracing on
// or off. The pins were recorded at commit
// 623b44b, the last with two runtimes, where the goroutine runtime was the
// reference and the event scheduler matched it; the body digests (not the
// clock) were re-pinned once since, when the kernels took the Newton
// reciprocal square root and fused multiply-adds (ISSUE 24). Those pins still
// hold one walker per leaf (leafGroups); digests and clock one walker per sink
// group were pinned when the walk went to groups, and re-pinned when local
// leaves were tested like remote ones and groups grew to 80 bodies. Rank 0's
// virtual clock is pinned on single-rank runs, where it is a pure function of
// the charged work; on many ranks every clock is compared across widths (the
// walk's polling runs in a one-slot region), and TestSchedulePinnedAcrossTwoPassRewrite
// pins a makespan.
func TestEngineBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	ics := PlummerSphere(rng, 800, 1.0)

	run := func(procs, width int, trace bool) (res Result) {
		cl := testCluster()
		if trace {
			cl = cl.WithObs(obs.New(true))
		}
		atWidth(width, func() {
			res = Run(RunConfig{
				Cluster: cl, Procs: procs, Steps: 2,
				Opt:          Options{Theta: 0.6, Eps: 0.02, DT: 0.005},
				GatherBodies: true,
			}, ics)
		})
		return res
	}
	digest := func(bodies []Body) uint64 {
		h := fnv.New64a()
		var buf [8]byte
		for i := range bodies {
			for _, v := range []vec.V3{bodies[i].Pos, bodies[i].Vel} {
				for _, x := range v {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
					h.Write(buf[:])
				}
			}
		}
		return h.Sum64()
	}

	for _, pin := range []struct {
		leaves bool // one walker per leaf from here on
		procs  int
		bodies uint64  // digest of the final positions and velocities
		clock  float64 // rank 0's final clock; pinned for procs == 1 only
	}{
		{false, 1, 0x3459b255c546aa70, 0.12699291798332782},
		{false, 8, 0x69ec44d199b51f67, 0},
		{true, 1, 0x232018fe6cbfb1fb, 0.09525816928794391},
		{true, 8, 0x6a615ea844e30e07, 0},
	} {
		if pin.leaves {
			leafGroups(t)
		}
		procs := pin.procs
		var ref Result
		for i, cfg := range []struct {
			width int
			trace bool
		}{{4, false}, {1, false}, {2, true}} {
			got := run(procs, cfg.width, cfg.trace)
			if got.Err != nil {
				t.Fatalf("procs=%d width=%d: %v", procs, cfg.width, got.Err)
			}
			if i == 0 {
				ref = got
				continue
			}
			for b := range ref.Bodies {
				if got.Bodies[b].Pos != ref.Bodies[b].Pos || got.Bodies[b].Vel != ref.Bodies[b].Vel {
					t.Fatalf("procs=%d width=%d trace=%v: body %d differs: %+v vs %+v",
						procs, cfg.width, cfg.trace, b, got.Bodies[b], ref.Bodies[b])
				}
			}
			for r := range ref.Comm.RankClocks {
				if got.Comm.RankClocks[r] != ref.Comm.RankClocks[r] {
					t.Fatalf("procs=%d width=%d trace=%v: rank %d clock %v, want %v",
						procs, cfg.width, cfg.trace, r, got.Comm.RankClocks[r], ref.Comm.RankClocks[r])
				}
			}
		}
		if runtime.GOARCH != "amd64" {
			continue
		}
		if d := digest(ref.Bodies); d != pin.bodies {
			t.Errorf("leaves=%v procs=%d: body digest %#x, pinned %#x", pin.leaves, procs, d, pin.bodies)
		}
		if procs == 1 && ref.Comm.RankClocks[0] != pin.clock {
			t.Errorf("leaves=%v procs=1: clock %v, pinned %v", pin.leaves, ref.Comm.RankClocks[0], pin.clock)
		}
	}
}

// widths are the host core counts the schedule tests run at: the scheduler's
// pool is min(GOMAXPROCS, ranks) slots wide.
var widths = []int{1, 2, 4, 8}

// atWidth runs fn with GOMAXPROCS set to w, and restores it.
func atWidth(w int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
	fn()
}

// The walk polls, so what a poll finds depends on the order the host runs
// the ranks; ComputeForces runs it as a one-slot region, entered in rank
// order, and the blocking phases around it are a function of the message
// DAG alone. Identical runs then agree on the complete virtual schedule, not
// just the numerics, at any width of the pool and with no slot setting: an
// 8-rank Plummer step at every width, and a 64-rank cold sphere (fetches
// from up to 63 other ranks a group) twenty times over, the widths taken in
// turn. This is the determinism rule DESIGN.md §12 documents.
func TestEventEngineReproducibleSchedule(t *testing.T) {
	sameSchedule := func(what string, a, b Result) {
		t.Helper()
		if a.Err != nil || b.Err != nil {
			t.Fatalf("%s: errs: %v / %v", what, a.Err, b.Err)
		}
		if a.ElapsedVirtual != b.ElapsedVirtual || a.Comm.Messages != b.Comm.Messages || a.Fetches != b.Fetches {
			t.Fatalf("%s: makespan %v, %d messages, %d fetches; first run %v, %d, %d", what,
				b.ElapsedVirtual, b.Comm.Messages, b.Fetches, a.ElapsedVirtual, a.Comm.Messages, a.Fetches)
		}
		for r := range a.Comm.RankClocks {
			if a.Comm.RankClocks[r] != b.Comm.RankClocks[r] {
				t.Fatalf("%s: rank %d clock %v, first run %v", what, r, b.Comm.RankClocks[r], a.Comm.RankClocks[r])
			}
		}
		for i := range a.Bodies {
			if a.Bodies[i].Pos != b.Bodies[i].Pos || a.Bodies[i].Vel != b.Bodies[i].Vel {
				t.Fatalf("%s: body %d differs between identical runs", what, i)
			}
		}
	}
	run := func(ics []Body, procs, width int) (res Result) {
		atWidth(width, func() {
			res = Run(RunConfig{
				Cluster: testCluster(), Procs: procs, Steps: 1,
				Opt:          Options{Theta: 0.6, Eps: 0.02, DT: 0.005},
				GatherBodies: true,
			}, ics)
		})
		return res
	}

	plummer := PlummerSphere(rand.New(rand.NewSource(41)), 600, 1.0)
	first := run(plummer, 8, widths[0])
	for _, w := range widths[1:] {
		sameSchedule(fmt.Sprintf("plummer, 8 ranks, width %d", w), first, run(plummer, 8, w))
	}

	cold := ColdSphere(rand.New(rand.NewSource(41)), 64*24, 1.0)
	reruns := 20
	if testing.Short() {
		reruns = len(widths)
	}
	first = run(cold, 64, widths[0])
	for i := 1; i < reruns; i++ {
		w := widths[i%len(widths)]
		sameSchedule(fmt.Sprintf("cold sphere, 64 ranks, rerun %d at width %d", i, w), first, run(cold, 64, w))
	}
}

// An armed fault plan works through core.Run: the scheduled crash aborts the
// run with its diagnostic. core.Run puts a world with crashes scheduled on
// one slot, so the width of the pool does not enter here.
func TestEngineFaultPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ics := PlummerSphere(rng, 400, 1.0)
	plan := mp.NewFaultPlan(4)
	plan.Crash(2, 0.002, "PSU")
	res := Run(RunConfig{
		Cluster: testCluster(), Procs: 4, Steps: 3,
		Opt:    Options{Theta: 0.6, Eps: 0.02, DT: 0.005},
		Faults: plan,
	}, ics)
	var ce *mp.CrashError
	if !errors.As(res.Err, &ce) || ce.Rank != 2 || ce.AtSec != 0.002 {
		t.Fatalf("want rank-2 crash at 0.002, got %v", res.Err)
	}
}
