package mp

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// regionWidths are the pool widths the region tests run at.
var regionWidths = []int{1, 2, 4, 8}

// polled runs a polling ABM program inside a region, between two blocking
// phases whose per-rank charges differ, so that the ranks reach the region
// at different host times and virtual clocks. serve and cont charge work
// that depends on who asked and who answered: a schedule that let host order
// decide which poll wins would show in the clocks.
func polled(issue func(r *Rank, a *ABM, cont func(depth int) func(any)) int) func(r *Rank) {
	return func(r *Rank) {
		r.Charge(1e6*float64(r.Size()-r.ID()), 0.5, 0)
		r.AllreduceScalar(float64(r.ID()), OpSum)
		r.OneSlot(func() {
			a := NewABM(r)
			a.Handle(hEcho, func(src int, req any) (any, int64) {
				r.Charge(1e4*float64(src+1), 0.5, 0)
				return req.(int) + 1, 8
			})
			done := 0
			var cont func(depth int) func(any)
			cont = func(depth int) func(any) {
				return func(resp any) {
					r.Charge(1e4*float64(resp.(int)%7+1), 0.5, 0)
					if depth > 1 {
						// A fetch chain: the reply names the next rank to ask.
						a.Request((r.ID()+resp.(int))%r.Size(), hEcho, resp.(int), 8, cont(depth-1))
						return
					}
					done++
				}
			}
			want := issue(r, a, cont)
			for done < want {
				a.FlushAll()
				if a.Poll() == 0 {
					r.Yield()
				}
			}
			a.Quiesce()
		})
		r.Charge(1e5*float64(r.ID()+1), 0.5, 0)
		r.Barrier()
	}
}

// regionPrograms are item 1a's toy programs: a request/reply ring, many
// ranks asking one, and fetch chains of depth 3.
var regionPrograms = []struct {
	name string
	fn   func(r *Rank)
}{
	{"ring", polled(func(r *Rank, a *ABM, cont func(int) func(any)) int {
		for i := 0; i < 5; i++ {
			a.Request((r.ID()+1)%r.Size(), hEcho, i, 8, cont(1))
		}
		return 5
	})},
	{"many-to-one", polled(func(r *Rank, a *ABM, cont func(int) func(any)) int {
		if r.ID() == 0 {
			return 0
		}
		for i := 0; i < 3; i++ {
			a.Request(0, hEcho, r.ID()+i, 8, cont(1))
		}
		return 3
	})},
	{"chain-3", polled(func(r *Rank, a *ABM, cont func(int) func(any)) int {
		for i := 0; i < 2; i++ {
			a.Request((r.ID()+1+i)%r.Size(), hEcho, i, 8, cont(3))
		}
		return 2
	})},
}

// Polling programs repeat their schedule inside a region: every rank clock,
// the makespan and the traffic are bit-identical at every pool width and over
// twenty reruns.
func TestOneSlotRegionRepeats(t *testing.T) {
	for _, prog := range regionPrograms {
		for _, n := range []int{2, 5, 8} {
			t.Run(fmt.Sprintf("%s/n=%d", prog.name, n), func(t *testing.T) {
				var first Stats
				reruns := 20
				if testing.Short() {
					reruns = len(regionWidths)
				}
				for i := 0; i < reruns; i++ {
					w := regionWidths[i%len(regionWidths)]
					st := RunWith(testCluster(n), n, RunOptions{Workers: w}, prog.fn)
					if st.Err != nil {
						t.Fatalf("workers=%d: %v", w, st.Err)
					}
					if i == 0 {
						first = st
						continue
					}
					if st.ElapsedVirtual != first.ElapsedVirtual || st.Messages != first.Messages || st.Bytes != first.Bytes {
						t.Fatalf("rerun %d, workers=%d: makespan %v, traffic %d/%d; first run %v, %d/%d", i, w,
							st.ElapsedVirtual, st.Messages, st.Bytes, first.ElapsedVirtual, first.Messages, first.Bytes)
					}
					for r := range first.RankClocks {
						if st.RankClocks[r] != first.RankClocks[r] {
							t.Fatalf("rerun %d, workers=%d: rank %d clock %v, first run %v",
								i, w, r, st.RankClocks[r], first.RankClocks[r])
						}
					}
				}
			})
		}
	}
}

// The region's two rendezvous move no clock: a region around nothing leaves
// every clock where the same program without it puts it.
func TestOneSlotMovesNoClock(t *testing.T) {
	prog := func(region bool) func(r *Rank) {
		return func(r *Rank) {
			r.Charge(1e6*float64(r.ID()+1), 0.5, 0)
			if region {
				r.OneSlot(func() {})
			}
			r.Charge(1e5, 0.5, 0)
			r.Barrier()
		}
	}
	for _, w := range regionWidths {
		a := RunWith(testCluster(5), 5, RunOptions{Workers: w}, prog(false))
		b := RunWith(testCluster(5), 5, RunOptions{Workers: w}, prog(true))
		for r := range a.RankClocks {
			if a.RankClocks[r] != b.RankClocks[r] {
				t.Errorf("workers=%d: rank %d clock %v with an empty region, %v without", w, r, b.RankClocks[r], a.RankClocks[r])
			}
		}
	}
}

// A crash while the other ranks wait at the rendezvous unwinds them all and
// none enters the region: fired by the crashing rank itself, or by
// quiescence resolution when the rank whose crash is due is blocked.
func TestOneSlotCrashAtRendezvous(t *testing.T) {
	for _, w := range regionWidths {
		for _, blocked := range []bool{false, true} {
			plan := NewFaultPlan(4)
			plan.Crash(2, 1.0, "PSU")
			var entered atomic.Int32
			st := RunWith(testCluster(4), 4, RunOptions{Workers: w, Plan: plan}, func(r *Rank) {
				if r.ID() == 2 {
					if blocked {
						r.Recv(0, 7) // never sent
					}
					r.AdvanceClock(2)
					r.Charge(1, 1, 0) // past the crash time: fires
				}
				r.OneSlot(func() { entered.Add(1) })
				t.Errorf("workers=%d: rank %d left a region of a crashed world", w, r.ID())
			})
			var ce *CrashError
			if !errors.As(st.Err, &ce) || ce.Rank != 2 {
				t.Fatalf("workers=%d blocked=%v: Err = %v, want rank 2's crash", w, blocked, st.Err)
			}
			if n := entered.Load(); n != 0 {
				t.Errorf("workers=%d blocked=%v: %d ranks entered the region", w, blocked, n)
			}
		}
	}
}

// An abort inside the region (a crash on the one slot) unwinds the ranks
// already waiting at the rendezvous at its end.
func TestOneSlotCrashInsideRegion(t *testing.T) {
	for _, w := range regionWidths {
		plan := NewFaultPlan(4)
		plan.Crash(3, 1.0, "DRAM")
		st := RunWith(testCluster(4), 4, RunOptions{Workers: w, Plan: plan}, func(r *Rank) {
			r.OneSlot(func() {
				if r.ID() == 3 {
					r.AdvanceClock(2)
					r.Charge(1, 1, 0)
				}
			})
			t.Errorf("workers=%d: rank %d left a region of a crashed world", w, r.ID())
		})
		var ce *CrashError
		if !errors.As(st.Err, &ce) || ce.Rank != 3 {
			t.Fatalf("workers=%d: Err = %v, want rank 3's crash", w, st.Err)
		}
	}
}

// A rank that exits before the rendezvous does not hold it up: the others
// meet without it, run the region and leave it.
func TestOneSlotRankExitsFirst(t *testing.T) {
	for _, w := range regionWidths {
		var ran atomic.Int32
		st := RunWith(testCluster(5), 5, RunOptions{Workers: w}, func(r *Rank) {
			if r.ID() == 3 {
				return
			}
			r.Charge(1e6*float64(r.ID()+1), 0.5, 0)
			r.OneSlot(func() { ran.Add(1) })
			r.OneSlot(func() { ran.Add(1) })
		})
		if st.Err != nil || ran.Load() != 8 {
			t.Fatalf("workers=%d: err %v, %d region bodies run, want 8", w, st.Err, ran.Load())
		}
	}
}

// A deadlock that ranks at a rendezvous wait on is diagnosed: the error
// names the blocked rank and its receive, and the ranks waiting beside it.
func TestOneSlotDeadlockNamesWaiting(t *testing.T) {
	for _, w := range regionWidths {
		st := RunWith(testCluster(4), 4, RunOptions{Workers: w}, func(r *Rank) {
			if r.ID() == 1 {
				r.Recv(2, 42) // rank 2 is at the rendezvous, and sends nothing
			}
			r.OneSlot(func() {})
		})
		var de *DeadlockError
		if !errors.As(st.Err, &de) {
			t.Fatalf("workers=%d: Err = %v, want DeadlockError", w, st.Err)
		}
		if len(de.Blocked) != 1 || de.Blocked[0].Rank != 1 || de.Blocked[0].Src != 2 || de.Blocked[0].Tag != 42 {
			t.Errorf("workers=%d: blocked %+v, want rank 1 in Recv(2, 42)", w, de.Blocked)
		}
		if fmt.Sprint(de.Waiting) != "[0 2 3]" {
			t.Errorf("workers=%d: waiting %v, want [0 2 3]", w, de.Waiting)
		}
		if msg := de.Error(); !strings.Contains(msg, "rank 3 waiting at a rendezvous") {
			t.Errorf("workers=%d: message does not name the waiting ranks:\n%s", w, msg)
		}
	}
}
