package mp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"spacesim/internal/obs"
)

// engineConfigs are the worker-pool widths under test: the default (host
// cores), 1 (serializes everything) and 3 (forces slot contention). The
// names are the ones the subtests have always had.
var engineConfigs = []struct {
	name string
	opt  RunOptions
}{
	{"event", RunOptions{}},
	{"event-w1", RunOptions{Workers: 1}},
	{"event-w3", RunOptions{Workers: 3}},
}

// schedulePin is the virtual schedule of one blocking workload as recorded
// at commit 623b44b, the last one that had two runtimes; there the
// goroutine runtime and the event scheduler agreed on every one of these
// bit for bit. clocks is clockDigest(Stats.RankClocks). Like the golden
// force digests, makespan and clocks encode amd64 arithmetic (no FMA
// contraction in the network model); the traffic counts hold anywhere.
type schedulePin struct {
	makespan    float64
	clocks      uint64
	msgs, bytes int64
}

// clockDigest is FNV-1a over the little-endian bits of every rank's clock.
func clockDigest(clocks []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, c := range clocks {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// runPinned runs fn at every worker-pool width, asserts the virtual
// schedules are bit-identical to one another, and holds the first against
// the pin.
func runPinned(t *testing.T, n int, want schedulePin, fn func(r *Rank)) {
	t.Helper()
	var first Stats
	ref := engineConfigs[0].name
	for i, ec := range engineConfigs {
		st := RunWith(testCluster(n), n, ec.opt, fn)
		if st.Err != nil {
			t.Fatalf("%s n=%d: %v", ec.name, n, st.Err)
		}
		if i == 0 {
			first = st
			continue
		}
		if st.ElapsedVirtual != first.ElapsedVirtual {
			t.Errorf("%s n=%d: makespan %v, %s had %v", ec.name, n, st.ElapsedVirtual, ref, first.ElapsedVirtual)
		}
		for r := range first.RankClocks {
			if st.RankClocks[r] != first.RankClocks[r] {
				t.Errorf("%s n=%d: rank %d clock %v, %s had %v",
					ec.name, n, r, st.RankClocks[r], ref, first.RankClocks[r])
			}
		}
		if st.Messages != first.Messages || st.Bytes != first.Bytes {
			t.Errorf("%s n=%d: traffic %d/%d, %s had %d/%d",
				ec.name, n, st.Messages, st.Bytes, ref, first.Messages, first.Bytes)
		}
	}
	got := schedulePin{first.ElapsedVirtual, clockDigest(first.RankClocks), first.Messages, first.Bytes}
	if runtime.GOARCH != "amd64" {
		got.makespan, got.clocks = want.makespan, want.clocks
	}
	if got != want {
		t.Errorf("n=%d: schedule {%v, %#x, %d, %d}, pinned {%v, %#x, %d, %d}",
			n, got.makespan, got.clocks, got.msgs, got.bytes, want.makespan, want.clocks, want.msgs, want.bytes)
	}
}

// TestCollectivesBothEngines is the non-power-of-two collective matrix:
// Barrier, Bcast, Reduce, Allgather, and Alltoall at n ∈ {3, 7, 294} must
// produce correct results and the pinned virtual completion times at every
// pool width. (The name dates from the two runtimes the pins were recorded
// on.) Re-pinned once, when the allgather went from a ring to Bruck's log n
// rounds: the bytes did not move, and the messages fell by n(n-1) - n·ceil(log2 n)
// (the makespans read 0.00089103, 0.00204039 and 0.05428191 s before, the
// messages 26, 131 and 177640). Re-pinned again when every message came to
// leave through its sender's NIC and pay the per-message overhead once: the
// makespans read 0.00080794, 0.00169030 and 0.02900591 s before.
func TestCollectivesBothEngines(t *testing.T) {
	pins := []struct {
		n    int
		want schedulePin
	}{
		{3, schedulePin{0.0007839421578506547, 0xc214587c7904d0dc, 26, 208}},
		{7, schedulePin{0.0016483021256648697, 0x12e539be14d11052, 110, 1024}},
		{294, schedulePin{0.02887991048240991, 0x69f99dc0465ca786, 94144, 1406984}},
	}
	if testing.Short() {
		pins = pins[:2]
	}
	for _, tc := range pins {
		n, want := tc.n, tc.want
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runPinned(t, n, want, func(r *Rank) {
				id, size := r.ID(), r.Size()
				r.Barrier()

				// Bcast from a non-zero root.
				buf := make([]float64, 4)
				if id == size-1 {
					for i := range buf {
						buf[i] = float64(i) + 0.5
					}
				}
				buf = r.Bcast(size-1, buf)
				for i := range buf {
					if buf[i] != float64(i)+0.5 {
						t.Errorf("rank %d: bcast[%d] = %v", id, i, buf[i])
					}
				}

				// Reduce to rank 0: sum of ranks.
				v := r.Reduce(0, []float64{float64(id)}, OpSum)
				if id == 0 && v[0] != float64(size*(size-1)/2) {
					t.Errorf("reduce sum = %v, want %d", v[0], size*(size-1)/2)
				}

				// Allgather: every rank contributes its id.
				all := r.Allgather([]float64{float64(id)})
				for i := 0; i < size; i++ {
					if all[i][0] != float64(i) {
						t.Errorf("rank %d: allgather[%d] = %v", id, i, all[i])
					}
				}

				// Alltoall: rank i sends i*size+j to rank j.
				out := make([][]float64, size)
				for j := range out {
					out[j] = []float64{float64(id*size + j)}
				}
				in := r.Alltoall(out)
				for j := range in {
					if in[j][0] != float64(j*size+id) {
						t.Errorf("rank %d: alltoall[%d] = %v", id, j, in[j])
					}
				}

				// Allreduce keeps the non-power-of-two fold honest too.
				s := r.AllreduceScalar(float64(id+1), OpSum)
				if s != float64(size*(size+1)/2) {
					t.Errorf("rank %d: allreduce = %v", id, s)
				}
			})
		})
	}
}

// TestEventEnginePointToPoint pins the schedule of irregular traffic:
// wildcard receives, selective tags, self-sends, charge/advance mixing.
// Re-pinned once, when every message came to leave through its sender's
// NIC and pay the per-message overhead once (the makespans read
// 0.08004311, 0.19879818 and 0.31737526 s before).
func TestEventEnginePointToPoint(t *testing.T) {
	for n, want := range map[int]schedulePin{
		2: {0.08003710905837783, 0x659ed83db4ef9a85, 8, 176},
		5: {0.19878618415719207, 0xc5cda31ac3c837a5, 30, 440},
		8: {0.31736325925600617, 0x1e6929d10a44c320, 48, 704},
	} {
		runPinned(t, n, want, func(r *Rank) {
			id, size := r.ID(), r.Size()
			next, prev := (id+1)%size, (id+size-1)%size
			r.Charge(1e8*float64(id+1), 0.5, 1e6)
			r.Send(next, 1, id, 64)
			r.SendFloats(next, 2, []float64{float64(id)})
			if d, st := r.Recv(prev, 1); d.(int) != prev || st.Source != prev {
				t.Errorf("rank %d: got %v from %d", id, d, st.Source)
			}
			// Wildcard pick-up of the second message.
			if xs, st := r.RecvFloats(AnySource, 2); st.Source != prev || xs[0] != float64(prev) {
				t.Errorf("rank %d: wildcard from %d: %v", id, st.Source, xs)
			}
			// Self-send round trip.
			r.Send(id, 9, "self", 16)
			if d, _ := r.Recv(id, 9); d.(string) != "self" {
				t.Errorf("rank %d: self-send payload %v", id, d)
			}
			r.Barrier()
		})
	}
}

// TestWakeOrderIsPutOrder pins the order in which the scheduler readies
// woken receivers: put order, not virtual-arrival order. On one slot, rank 0
// wakes blocked rank 2 with a late arrival and then blocked rank 1 with an
// early one; the host runs rank 2 first, and each clock is still its
// message's arrival.
func TestWakeOrderIsPutOrder(t *testing.T) {
	var order []int // appended only by the rank holding the one slot
	o := obs.New(true)
	st := RunWith(testCluster(3).WithObs(o), 3, RunOptions{Workers: 1}, func(r *Rank) {
		if r.ID() == 0 {
			r.Yield() // ranks 1 and 2 run and park in Recv
			r.Send(2, 0, nil, 1<<20)
			r.Send(1, 0, nil, 8)
			return
		}
		r.Recv(0, 0)
		order = append(order, r.ID())
	})
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Errorf("host ran the woken ranks in order %v, want [2 1]", order)
	}
	sends := o.Events.Ranks()[0].Sends
	if len(sends) != 2 || sends[0].Dst != 2 || sends[1].Dst != 1 {
		t.Fatalf("rank 0 sends %+v, want one to rank 2, then one to rank 1", sends)
	}
	late, early := sends[0].Arrive, sends[1].Arrive
	if late <= early {
		t.Fatalf("arrival at rank 2 %v not after arrival at rank 1 %v", late, early)
	}
	if st.RankClocks[2] != late || st.RankClocks[1] != early {
		t.Errorf("clocks %v, want rank 1 at %v and rank 2 at %v", st.RankClocks, early, late)
	}
}

// TestEventEngineQuiescentCrash checks the first rung of the quiescence
// ladder at every pool width: when every live rank is parked, the earliest
// scheduled crash among them fires (ties to the lowest rank), so the world
// dies of that crash, not of a deadlock, and the clocks froze where the
// ranks parked.
func TestEventEngineQuiescentCrash(t *testing.T) {
	for _, ec := range engineConfigs {
		ec := ec
		t.Run(ec.name, func(t *testing.T) {
			plan := NewFaultPlan(3)
			plan.Crash(2, 5, "PSU")
			plan.Crash(1, 3, "Fan")
			opt := ec.opt
			opt.Plan = plan
			st := RunWith(testCluster(3), 3, opt, func(r *Rank) {
				r.Charge(1e6*float64(1+r.ID()), 1, 0)
				r.Recv(AnySource, 42) // nobody ever sends
			})
			var ce *CrashError
			if !errors.As(st.Err, &ce) {
				t.Fatalf("want CrashError, got %v", st.Err)
			}
			if ce.Rank != 1 || ce.AtSec != 3 || ce.Cause != "Fan" {
				t.Errorf("crash = %+v, want rank 1 at 3s (Fan)", ce)
			}
			for i, c := range st.RankClocks {
				if c <= 0 || c >= 3 {
					t.Errorf("rank %d clock %g, want its parked clock before the crash", i, c)
				}
			}
		})
	}
}

// TestEventEngineDeadlock checks the O(1) quiescence detector aborts a
// stuck world with a diagnostic naming every blocked rank and its receive.
func TestEventEngineDeadlock(t *testing.T) {
	for _, ec := range engineConfigs {
		ec := ec
		t.Run(ec.name, func(t *testing.T) {
			st := RunWith(testCluster(3), 3, ec.opt, func(r *Rank) {
				r.Recv(AnySource, 42) // nobody ever sends
			})
			var de *DeadlockError
			if !errors.As(st.Err, &de) {
				t.Fatalf("want DeadlockError, got %v", st.Err)
			}
			if len(de.Blocked) != 3 {
				t.Fatalf("blocked ranks = %d, want 3", len(de.Blocked))
			}
			for i, b := range de.Blocked {
				if b.Rank != i || b.Tag != 42 {
					t.Errorf("blocked[%d] = %+v", i, b)
				}
			}
		})
	}
}

// TestEventEngineCrash checks fault injection through the event loop: the
// crash fires at its deterministic virtual time, other ranks die at their
// next operation, and a crash scheduled on a *blocked* rank is fired by
// quiescence resolution.
func TestEventEngineCrash(t *testing.T) {
	for _, ec := range engineConfigs {
		ec := ec
		t.Run(ec.name, func(t *testing.T) {
			plan := NewFaultPlan(4)
			plan.Crash(2, 0.5, "PSU")
			opt := ec.opt
			opt.Plan = plan
			st := RunWith(testCluster(4), 4, opt, func(r *Rank) {
				for i := 0; i < 100; i++ {
					r.AdvanceClock(0.01)
					r.Barrier()
				}
			})
			var ce *CrashError
			if !errors.As(st.Err, &ce) || ce.Rank != 2 || ce.AtSec != 0.5 {
				t.Fatalf("want rank-2 crash at 0.5, got %v", st.Err)
			}

			// Crash on a rank that is blocked forever: only quiescence can
			// fire it.
			plan2 := NewFaultPlan(2)
			plan2.Crash(1, 1.0, "DRAM")
			opt2 := ec.opt
			opt2.Plan = plan2
			st2 := RunWith(testCluster(2), 2, opt2, func(r *Rank) {
				if r.ID() == 1 {
					r.AdvanceClock(2.0) // past its crash... but it blocks first
					r.Recv(0, 9)        // checkFaults fires before blocking
				}
			})
			var ce2 *CrashError
			if !errors.As(st2.Err, &ce2) || ce2.Rank != 1 {
				t.Fatalf("want rank-1 crash, got %v", st2.Err)
			}
		})
	}
}

// TestEventEngineCrashWhileBlocked pins the ladder's stage 2: a rank
// blocked *before* its crash time still dies at quiescence.
func TestEventEngineCrashWhileBlocked(t *testing.T) {
	for _, ec := range engineConfigs {
		ec := ec
		t.Run(ec.name, func(t *testing.T) {
			plan := NewFaultPlan(2)
			plan.Crash(0, 5.0, "NIC")
			opt := ec.opt
			opt.Plan = plan
			st := RunWith(testCluster(2), 2, opt, func(r *Rank) {
				r.Recv(AnySource, 3) // both block; rank 0 has a pending crash
			})
			var ce *CrashError
			if !errors.As(st.Err, &ce) || ce.Rank != 0 || ce.AtSec != 5.0 {
				t.Fatalf("want blocked rank-0 crash at 5.0, got %v", st.Err)
			}
		})
	}
}

// TestEventEngineABM runs the ABM request/quiesce machinery at every pool
// width, including a 1-worker pool — the hardest case for polling loops,
// which must yield the slot instead of spinning. Polling workloads are
// host-order-dependent in virtual time (a property of the latency-hiding
// layer, see DESIGN.md), so only the numerics are checked:
// every rank must get exactly the right multiset of responses.
func TestEventEngineABM(t *testing.T) {
	work := func(t *testing.T, r *Rank) {
		a := NewABM(r)
		const h = 1
		a.Handle(h, func(src int, req any) (any, int64) {
			return req.(int) * 2, 8
		})
		n := r.Size()
		got := make([]int, 0, n)
		for d := 0; d < n; d++ {
			dst := (r.ID() + d) % n
			a.Request(dst, h, dst+10, 8, func(resp any) {
				got = append(got, resp.(int))
			})
		}
		a.FlushAll()
		a.Quiesce()
		if len(got) != n {
			t.Errorf("rank %d: %d responses, want %d", r.ID(), len(got), n)
		}
		sum := 0
		for _, g := range got {
			sum += g
		}
		want := n*20 + n*(n-1) // sum of (d+10)*2 over d in [0,n)
		if sum != want {
			t.Errorf("rank %d: response sum %d, want %d", r.ID(), sum, want)
		}
	}
	for _, n := range []int{3, 7, 8} {
		for _, ec := range engineConfigs {
			st := RunWith(testCluster(n), n, ec.opt, func(r *Rank) { work(t, r) })
			if st.Err != nil {
				t.Fatalf("%s n=%d: %v", ec.name, n, st.Err)
			}
		}
	}
}

// TestEventEngineGather exercises the AnySource fan-in path (round-stamped
// gather) where inbox queues grow long — the case the ring-buffer inbox
// compaction targets. Re-pinned once, when the per-message overhead came to
// be paid once (the makespans read 9.508889e-05 s before).
func TestEventEngineGather(t *testing.T) {
	for n, want := range map[int]schedulePin{
		3:  {9.208888888888889e-05, 0x2aa0a59a0ecf4a5e, 6, 48},
		7:  {9.208888888888889e-05, 0xa5f36b3b877dc56, 18, 144},
		16: {9.208888888888889e-05, 0x465a03ffc15b16f3, 45, 360},
	} {
		runPinned(t, n, want, func(r *Rank) {
			for round := 0; round < 3; round++ {
				xs := r.Gather(0, []float64{float64(r.ID()*100 + round)})
				if r.ID() == 0 {
					for i := 0; i < n; i++ {
						if xs[i][0] != float64(i*100+round) {
							t.Errorf("round %d: gather[%d] = %v", round, i, xs[i])
						}
					}
				}
			}
		})
	}
}

// TestEventEngine1024Collectives is the full-machine collective smoke: a
// 1024-rank world (a hypothetical larger Space Simulator) completing
// barrier + bcast + allreduce + allgather rounds under the event engine.
func TestEventEngine1024Collectives(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-rank smoke skipped in -short")
	}
	const n = 1024
	st := RunWith(testCluster(n), n, RunOptions{Engine: EngineEvent}, func(r *Rank) {
		r.Barrier()
		buf := r.Bcast(0, []float64{float64(r.ID())})
		if buf[0] != 0 {
			t.Errorf("rank %d: bcast got %v", r.ID(), buf[0])
		}
		s := r.AllreduceScalar(1, OpSum)
		if s != n {
			t.Errorf("rank %d: allreduce = %v", r.ID(), s)
		}
		all := r.Allgather([]float64{float64(r.ID())})
		if all[n-1][0] != n-1 {
			t.Errorf("rank %d: allgather tail = %v", r.ID(), all[n-1])
		}
	})
	if st.Err != nil {
		t.Fatalf("1024-rank collective smoke: %v", st.Err)
	}
	if st.ElapsedVirtual <= 0 {
		t.Fatalf("makespan = %v", st.ElapsedVirtual)
	}
}
