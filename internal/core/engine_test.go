package core

import (
	"encoding/binary"
	"errors"
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
// 8-rank treecode slice produces bit-identical positions and velocities at
// any worker count, with tracing on or off. The pins were recorded at commit
// 623b44b, the last with two runtimes, where the goroutine runtime was the
// reference and the event scheduler matched it; the body digests (not the
// clock) were re-pinned once since, when the kernels took the Newton
// reciprocal square root and fused multiply-adds (ISSUE 24). Those pins still
// hold one walker per leaf (leafGroups); digests and clock one walker per sink
// group were pinned when the walk went to groups, and re-pinned when local
// leaves were tested like remote ones and groups grew to 80 bodies. Virtual
// clocks are additionally pinned on single-rank runs, where they are a pure
// function of
// the charged work; on multi-rank runs the traversal's polling loops make
// the clock depend on host-time arrival order (see DESIGN.md on virtual-time
// semantics), so only the numerics are compared there.
func TestEngineBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	ics := PlummerSphere(rng, 800, 1.0)

	run := func(procs, workers int, trace bool) Result {
		cl := testCluster()
		if trace {
			cl = cl.WithObs(obs.New(true))
		}
		return Run(RunConfig{
			Cluster: cl, Procs: procs, Steps: 2,
			Opt:           Options{Theta: 0.6, Eps: 0.02, DT: 0.005},
			GatherBodies:  true,
			EngineWorkers: workers,
		}, ics)
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
			workers int
			trace   bool
		}{{0, false}, {1, false}, {2, true}} {
			got := run(procs, cfg.workers, cfg.trace)
			if got.Err != nil {
				t.Fatalf("procs=%d workers=%d: %v", procs, cfg.workers, got.Err)
			}
			if i == 0 {
				ref = got
				continue
			}
			for b := range ref.Bodies {
				if got.Bodies[b].Pos != ref.Bodies[b].Pos || got.Bodies[b].Vel != ref.Bodies[b].Vel {
					t.Fatalf("procs=%d workers=%d trace=%v: body %d differs: %+v vs %+v",
						procs, cfg.workers, cfg.trace, b, got.Bodies[b], ref.Bodies[b])
				}
			}
			if procs == 1 && got.Comm.RankClocks[0] != ref.Comm.RankClocks[0] {
				t.Fatalf("procs=1 workers=%d: clock %v, want %v",
					cfg.workers, got.Comm.RankClocks[0], ref.Comm.RankClocks[0])
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

// A single-worker event engine serializes execution, which removes the one
// source of nondeterminism the polling traversal has (host-time arrival
// order): two identical runs must then agree on the complete virtual
// schedule, not just the numerics. This is the engine's reproducible-run
// mode, and the determinism rule DESIGN.md §12 documents.
func TestEventEngineReproducibleSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ics := PlummerSphere(rng, 600, 1.0)
	run := func() Result {
		return Run(RunConfig{
			Cluster: testCluster(), Procs: 8, Steps: 1,
			Opt:           Options{Theta: 0.6, Eps: 0.02, DT: 0.005},
			GatherBodies:  true,
			Engine:        mp.EngineEvent,
			EngineWorkers: 1,
		}, ics)
	}
	a, b := run(), run()
	if a.Err != nil || b.Err != nil {
		t.Fatalf("errs: %v / %v", a.Err, b.Err)
	}
	if a.ElapsedVirtual != b.ElapsedVirtual {
		t.Fatalf("makespans differ: %v vs %v", a.ElapsedVirtual, b.ElapsedVirtual)
	}
	for r := range a.Comm.RankClocks {
		if a.Comm.RankClocks[r] != b.Comm.RankClocks[r] {
			t.Fatalf("rank %d clock differs: %v vs %v", r, a.Comm.RankClocks[r], b.Comm.RankClocks[r])
		}
	}
	for i := range a.Bodies {
		if a.Bodies[i].Pos != b.Bodies[i].Pos {
			t.Fatalf("body %d differs between identical runs", i)
		}
	}
}

// An armed fault plan works through core.Run: the scheduled crash aborts the
// run with the same diagnostic at any worker count.
func TestEngineFaultPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ics := PlummerSphere(rng, 400, 1.0)
	for _, workers := range []int{0, 1} {
		plan := mp.NewFaultPlan(4)
		plan.Crash(2, 0.002, "PSU")
		res := Run(RunConfig{
			Cluster: testCluster(), Procs: 4, Steps: 3,
			Opt:           Options{Theta: 0.6, Eps: 0.02, DT: 0.005},
			Faults:        plan,
			EngineWorkers: workers,
		}, ics)
		var ce *mp.CrashError
		if !errors.As(res.Err, &ce) || ce.Rank != 2 || ce.AtSec != 0.002 {
			t.Fatalf("engine-workers=%d: want rank-2 crash at 0.002, got %v", workers, res.Err)
		}
	}
}
