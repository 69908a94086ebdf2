package mp

import (
	"errors"
	"testing"
)

// TestWatchdogRecvNeverSent: a Recv on a tag nobody sends must abort the run
// with a DeadlockError naming the blocked rank instead of hanging go test.
func TestWatchdogRecvNeverSent(t *testing.T) {
	st := Run(testCluster(2), 2, func(r *Rank) {
		if r.ID() == 0 {
			r.Recv(1, 99) // never sent
			t.Error("rank 0 Recv returned")
		}
		// rank 1 returns immediately
	})
	var de *DeadlockError
	if !errors.As(st.Err, &de) {
		t.Fatalf("Err = %v, want DeadlockError", st.Err)
	}
	if !errors.Is(st.Err, ErrDeadlock) {
		t.Fatal("DeadlockError must unwrap to ErrDeadlock")
	}
	if len(de.Blocked) != 1 || de.Blocked[0].Rank != 0 || de.Blocked[0].Src != 1 || de.Blocked[0].Tag != 99 {
		t.Fatalf("diagnostic = %+v", de.Blocked)
	}
}

// TestWatchdogCrossedReceives: every rank blocked on the other's wrong tag.
func TestWatchdogCrossedReceives(t *testing.T) {
	st := Run(testCluster(2), 2, func(r *Rank) {
		r.SendFloats(1-r.ID(), 1, []float64{1})
		r.Recv(1-r.ID(), 2) // both sent tag 1, both wait on tag 2
	})
	var de *DeadlockError
	if !errors.As(st.Err, &de) {
		t.Fatalf("Err = %v, want DeadlockError", st.Err)
	}
	if len(de.Blocked) != 2 {
		t.Fatalf("want both ranks in the diagnostic, got %+v", de.Blocked)
	}
	for i, b := range de.Blocked {
		if b.Rank != i { // sorted by rank
			t.Fatalf("diagnostic not sorted: %+v", de.Blocked)
		}
	}
}

// TestCrashAbortsWorld: a scheduled crash kills the whole world at a
// deterministic virtual time; Stats.Err reports it as a rank-down error.
func TestCrashAbortsWorld(t *testing.T) {
	plan := NewFaultPlan(4)
	plan.Crash(2, 0.001, "PSU")
	st := RunWith(testCluster(4), 4, RunOptions{Plan: plan}, func(r *Rank) {
		for i := 0; i < 1000; i++ {
			r.Charge(1e6, 1, 0)
			r.Barrier()
		}
		t.Errorf("rank %d survived a crashed world", r.ID())
	})
	var ce *CrashError
	if !errors.As(st.Err, &ce) {
		t.Fatalf("Err = %v, want CrashError", st.Err)
	}
	if ce.Rank != 2 || ce.Cause != "PSU" {
		t.Fatalf("crash = %+v", ce)
	}
	if !errors.Is(st.Err, ErrRankDown) {
		t.Fatal("CrashError must unwrap to ErrRankDown")
	}
	if st.RankClocks[2] < 0.001 {
		t.Fatalf("crashed rank clock %g never reached the crash time", st.RankClocks[2])
	}
}

// TestCrashDeterministicVirtualTime: the crash fires at the same virtual
// instant with the same communication totals on every run.
func TestCrashDeterministicVirtualTime(t *testing.T) {
	run := func() Stats {
		plan := NewFaultPlan(4)
		plan.Crash(1, 0.0005, "DRAM")
		return RunWith(testCluster(4), 4, RunOptions{Plan: plan}, func(r *Rank) {
			for i := 0; i < 1000; i++ {
				r.Charge(1e6, 1, 0)
				r.Barrier()
			}
		})
	}
	a, b := run(), run()
	if a.RankClocks[1] != b.RankClocks[1] {
		t.Fatalf("crashed-rank clock differs across runs: %g vs %g", a.RankClocks[1], b.RankClocks[1])
	}
	var ca, cb *CrashError
	if !errors.As(a.Err, &ca) || !errors.As(b.Err, &cb) || *ca != *cb {
		t.Fatalf("crash errors differ: %v vs %v", a.Err, b.Err)
	}
}

// TestCrashWhileBlocked: a rank whose clock froze in a Recv before its crash
// time still dies — the watchdog fires the earliest pending crash when the
// world quiesces, so the driver sees a crash, not a deadlock.
func TestCrashWhileBlocked(t *testing.T) {
	plan := NewFaultPlan(2)
	plan.Crash(1, 10, "Fan")
	st := RunWith(testCluster(2), 2, RunOptions{Plan: plan}, func(r *Rank) {
		if r.ID() == 0 {
			r.Recv(1, 5)
		} else {
			r.Recv(0, 6)
		}
	})
	var ce *CrashError
	if !errors.As(st.Err, &ce) {
		t.Fatalf("Err = %v, want CrashError", st.Err)
	}
	if ce.Rank != 1 || ce.AtSec != 10 {
		t.Fatalf("crash = %+v", ce)
	}
}

// TestSendToCrashedRankFailsFast: a sender keeps issuing sends to a rank
// that died; the world aborts promptly rather than accumulating forever.
func TestSendToCrashedRankFailsFast(t *testing.T) {
	plan := NewFaultPlan(2)
	plan.Crash(0, 0, "Motherboard")
	st := RunWith(testCluster(2), 2, RunOptions{Plan: plan}, func(r *Rank) {
		if r.ID() == 0 {
			r.Charge(1, 1, 0) // first op fires the crash
			t.Error("rank 0 survived its own crash")
			return
		}
		for i := 0; i < 1_000_000; i++ {
			r.SendFloats(0, 1, []float64{1})
		}
		r.Recv(0, 2) // never answered; abort or watchdog must end this
	})
	if !errors.Is(st.Err, ErrRankDown) {
		t.Fatalf("Err = %v, want rank-down", st.Err)
	}
}

// TestCrashDuringABMQuiesce: ABM polling loops spin on TryRecv and never
// block, so they terminate only because TryRecv checks the abort flag.
func TestCrashDuringABMQuiesce(t *testing.T) {
	plan := NewFaultPlan(4)
	plan.Crash(3, 1e-7, "NIC driver")
	st := RunWith(testCluster(4), 4, RunOptions{Plan: plan}, func(r *Rank) {
		a := NewABM(r)
		a.Handle(1, func(src int, req any) (any, int64) { return req, 8 })
		for i := 0; i < 100; i++ {
			dst := (r.ID() + 1) % r.Size()
			a.Request(dst, 1, float64(i), 8, func(any) {})
			a.Poll()
		}
		a.Quiesce()
	})
	if !errors.Is(st.Err, ErrRankDown) {
		t.Fatalf("Err = %v, want rank-down", st.Err)
	}
}

// TestNoFaultRunsUnaffected: with no plan, a lopsided but
// live communication pattern completes exactly as before (no watchdog false
// positives), and Err stays nil.
func TestNoFaultRunsUnaffected(t *testing.T) {
	for _, n := range sizes {
		st := Run(testCluster(n), n, func(r *Rank) {
			// Ring with wildly different per-rank compute speeds.
			r.Charge(float64(1+r.ID())*1e7, 1, 0)
			next, prev := (r.ID()+1)%r.Size(), (r.ID()+r.Size()-1)%r.Size()
			for i := 0; i < 10; i++ {
				r.SendFloats(next, i, []float64{float64(i)})
				xs, _ := r.RecvFloats(prev, i)
				if int(xs[0]) != i {
					t.Errorf("round %d payload %v", i, xs)
				}
			}
		})
		if st.Err != nil {
			t.Fatalf("n=%d: unexpected abort: %v", n, st.Err)
		}
	}
}

// TestConcurrentCrashSendRecvRace exercises the crash-notification path
// under the race detector: many ranks blast messages while one crashes.
func TestConcurrentCrashSendRecvRace(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		plan := NewFaultPlan(8)
		plan.Crash(trial%8, float64(trial+1)*1e-5, "DRAM")
		st := RunWith(testCluster(8), 8, RunOptions{Plan: plan}, func(r *Rank) {
			for i := 0; i < 10_000_000; i++ {
				dst := (r.ID() + 1 + i%(r.Size()-1)) % r.Size()
				r.SendFloats(dst, i%4, []float64{float64(i)})
				r.TryRecv(AnySource, AnyTag)
				r.Charge(1e4, 1, 0)
				if i%16 == 0 {
					r.Barrier()
				}
			}
		})
		if !errors.Is(st.Err, ErrRankDown) {
			t.Fatalf("trial %d: Err = %v, want rank-down", trial, st.Err)
		}
	}
}
