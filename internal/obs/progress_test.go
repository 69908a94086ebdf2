package obs

import (
	"sync"
	"testing"
	"time"
)

// TestProgressSnapshot drives the marks with fabricated host times, so
// the fraction, rate and ETA are exact.
func TestProgressSnapshot(t *testing.T) {
	var nilP *Progress
	if got := nilP.Snapshot(); got.ETASec != -1 || got.StepFraction != 0 {
		t.Fatalf("nil publisher snapshot %+v", got)
	}

	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

	p := New(false).Progress()
	p.setTotalAt(20, at(0))
	p.State("running")
	p.Phase("step")
	if got := p.Snapshot(); got.ETASec != -1 || got.VirtualPerHostSec != 0 {
		t.Fatalf("before the first completed step: %+v, want eta -1, rate 0", got)
	}
	for i := 1; i <= 4; i++ {
		p.stepDoneAt(i, float64(i)*0.25, at(500*i))
	}
	want := func(got ProgressSnapshot, done, frac, rate, eta float64) {
		t.Helper()
		if got.StepsDone != done || got.StepsTotal != 20 || got.StepFraction != frac ||
			got.VirtualPerHostSec != rate || got.ETASec != eta {
			t.Fatalf("snapshot %+v, want done %v fraction %v rate %v eta %v", got, done, frac, rate, eta)
		}
	}
	// Four steps and one virtual second in two host seconds: 16 steps to go
	// at two steps a second.
	snap := p.Snapshot()
	want(snap, 4, 0.2, 0.5, 8)
	if snap.State != "running" || snap.Phase != "step" || snap.VirtualSec != 1 || snap.HostSec < 2 {
		t.Fatalf("snapshot %+v", snap)
	}

	// A rollback re-publishes a lower step: max-folded, so no mark, and
	// the view is unchanged.
	p.stepDoneAt(2, 0.5, at(9000))
	want(p.Snapshot(), 4, 0.2, 0.5, 8)

	// Recovery: a fresh Obs whose first mark is at restored step 10 (the
	// order core publishes a resumed segment in) counts its rate from there,
	// not from step 0.
	r := New(false).Progress()
	r.stepDoneAt(10, 5, at(0))
	r.setTotalAt(20, at(0))
	if got := r.Snapshot(); got.ETASec != -1 || got.StepFraction != 0.5 {
		t.Fatalf("resumed before its first step: %+v, want eta -1, fraction 0.5", got)
	}
	r.stepDoneAt(11, 5.5, at(1000))
	r.stepDoneAt(12, 6, at(2000))
	want(r.Snapshot(), 12, 0.6, 0.5, 8)
}

// TestProgressRace publishes from one goroutine while others snapshot;
// meaningful under -race (make race).
func TestProgressRace(t *testing.T) {
	o := New(false)
	p := o.Progress()
	p.SetTotal(2000)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s := o.Progress().Snapshot(); s.StepFraction < 0 || s.StepFraction > 1 {
					t.Errorf("fraction %v", s.StepFraction)
					return
				}
			}
		}()
	}
	for i := 1; i <= 2000; i++ {
		p.StepDone(i, float64(i))
		if i%100 == 0 {
			p.StepDone(i-50, 0) // a rollback re-publish
		}
	}
	close(stop)
	wg.Wait()
	if s := p.Snapshot(); s.StepFraction != 1 || s.StepsDone != 2000 {
		t.Fatalf("final snapshot %+v", s)
	}
}
