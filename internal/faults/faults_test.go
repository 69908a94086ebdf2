package faults

import (
	"math"
	"reflect"
	"testing"
)

func TestScheduleDeterministicPerSeed(t *testing.T) {
	opt := Options{Ranks: 32, Horizon: 20, Seed: 7, Accel: 200}
	a, b := New(opt), New(opt)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same options produced different schedules")
	}
	c := New(Options{Ranks: 32, Horizon: 20, Seed: 8, Accel: 200})
	if reflect.DeepEqual(a.Faults, c.Faults) {
		t.Fatal("different seeds produced identical fault lists")
	}
}

func TestScheduleShape(t *testing.T) {
	// High acceleration so every kind appears.
	s := New(Options{Ranks: 64, Horizon: 50, Seed: 3, Accel: 2000})
	if len(s.Faults) == 0 {
		t.Fatal("no faults drawn at heavy acceleration")
	}
	kinds := map[Kind]int{}
	last := 0.0
	for i, f := range s.Faults {
		kinds[f.Kind]++
		if f.Start < last {
			t.Fatalf("fault %d out of order: %g after %g", i, f.Start, last)
		}
		last = f.Start
		if f.Rank < 0 || f.Rank >= 64 {
			t.Fatalf("fault rank %d out of range", f.Rank)
		}
		if f.Start < 0 || f.Start >= s.Horizon {
			t.Fatalf("fault start %g outside horizon", f.Start)
		}
		if f.End < f.Start {
			t.Fatalf("fault %v ends before it starts", f)
		}
		switch f.Kind {
		case LinkDegrade:
			if f.Severity <= 0 || f.Severity > 1 {
				t.Fatalf("degrade severity %g not a capacity factor", f.Severity)
			}
			if f.End == f.Start {
				t.Fatalf("degrade %v has no duration", f)
			}
		case PortFlap:
			if f.Severity <= 0 || f.Severity > 0.01 {
				t.Fatalf("flap latency %g implausible", f.Severity)
			}
		case RankCrash, DiskCorrupt:
			if f.End != f.Start {
				t.Fatalf("instantaneous fault %v has duration", f)
			}
		}
	}
	for _, k := range []Kind{RankCrash, LinkDegrade, PortFlap, DiskCorrupt} {
		if kinds[k] == 0 {
			t.Fatalf("no %s faults drawn: %v", k, kinds)
		}
	}
}

// TestDiskFailuresDominate: in the linear (unsaturated) hazard regime the
// schedule echoes the paper's log, where disk deaths outnumber every
// fail-stop class combined (16 disks vs 7 crash-class units in 9 months).
func TestDiskFailuresDominate(t *testing.T) {
	disk, crash := 0, 0
	for seed := int64(0); seed < 50; seed++ {
		s := New(Options{Ranks: 64, Horizon: 10, Seed: seed, Accel: 5})
		disk += s.Count(DiskCorrupt)
		crash += s.Count(RankCrash)
	}
	if disk == 0 || crash == 0 {
		t.Fatalf("no faults drawn (disk %d, crash %d)", disk, crash)
	}
	if disk <= crash {
		t.Fatalf("disk %d should dominate crash-class %d", disk, crash)
	}
}

// TestCrashCountsMatchHazard: the Monte-Carlo crash count over many seeds
// must agree with the analytic Poisson-binomial mean within 3 standard
// errors — the same calibration contract reliability.Simulate honors.
func TestCrashCountsMatchHazard(t *testing.T) {
	opt := Options{Ranks: 64, Horizon: 10, Accel: 500}
	const trials = 300
	var sum float64
	for seed := int64(0); seed < trials; seed++ {
		opt.Seed = seed
		sum += float64(New(opt).Count(RankCrash))
	}
	mean := sum / trials
	want := ExpectedCrashes(opt)
	// Counts are a sum of independent Bernoullis; variance <= mean.
	sigma := math.Sqrt(want / trials)
	if d := math.Abs(mean - want); d > 3*sigma {
		t.Fatalf("mean crashes %.3f, want %.3f +/- %.3f (3 sigma)", mean, want, 3*sigma)
	}
}

func TestCrashPlanRebaseAndRetire(t *testing.T) {
	s := Manual(4, 100,
		Fault{Kind: RankCrash, Rank: 2, Start: 30, Cause: "PSU"},
		Fault{Kind: RankCrash, Rank: 1, Start: 70, Cause: "DRAM stick"},
	)
	fired := map[int]bool{}
	p0 := s.CrashPlan(fired, 0)
	if got := p0.CrashAtSec[2]; got != 30 {
		t.Fatalf("rank 2 crash at %g, want 30", got)
	}
	if got := p0.CrashAtSec[1]; got != 70 {
		t.Fatalf("rank 1 crash at %g, want 70", got)
	}
	// Segment restarts at global t=30 after the first crash fired.
	s.Retire(fired, 30)
	p1 := s.CrashPlan(fired, 30)
	if !math.IsInf(p1.CrashAtSec[2], 1) {
		t.Fatalf("fired crash still scheduled: %g", p1.CrashAtSec[2])
	}
	if got := p1.CrashAtSec[1]; got != 40 {
		t.Fatalf("rebased rank 1 crash at %g, want 40", got)
	}
	// The plan is a function of its arguments: an empty fired set plans
	// both crashes again.
	if p := s.CrashPlan(map[int]bool{}, 0); !reflect.DeepEqual(p, p0) {
		t.Fatalf("replanned %v, first plan %v", p.CrashAtSec, p0.CrashAtSec)
	}
	fired[s.Faults[1].ID] = true
	if p2 := s.CrashPlan(fired, 30); !p2.Empty() {
		t.Fatalf("every crash fired but the plan still holds one: %v", p2.CrashAtSec)
	}
}

func TestHealthRebase(t *testing.T) {
	s := Manual(4, 100,
		Fault{Kind: LinkDegrade, Rank: 0, Start: 10, End: 50, Severity: 0.5, Cause: "ethernet card"},
		Fault{Kind: PortFlap, Rank: 3, Start: 0, End: 5, Severity: 1e-3, Cause: "switch port (soft)"},
	)
	h := s.Health(0)
	if h == nil {
		t.Fatal("no health built")
	}
	if f := h.CapFactor(0, 20); f != 0.5 {
		t.Fatalf("degrade factor %g", f)
	}
	if l := h.PortLatency(3, 2); l != 1e-3 {
		t.Fatalf("flap latency %g", l)
	}
	// Re-based at t=40: 10 s of degradation left, the flap fully expired.
	h40 := s.Health(40)
	if f := h40.CapFactor(0, 5); f != 0.5 {
		t.Fatalf("rebased degrade factor %g", f)
	}
	if f := h40.CapFactor(0, 15); f != 1 {
		t.Fatalf("rebased degrade should have ended: %g", f)
	}
	if l := h40.PortLatency(3, 0); l != 0 {
		t.Fatalf("expired flap survived rebase: %g", l)
	}
	// Past every effect the health collapses to nil.
	if h60 := s.Health(60); h60 != nil {
		t.Fatalf("health past all effects should be nil, got %+v", h60)
	}
	deg, flap := s.DegradedSeconds()
	if deg != 80 { // two NIC directions x 40 s
		t.Fatalf("degraded seconds %g, want 80", deg)
	}
	if flap != 5 {
		t.Fatalf("flapping seconds %g, want 5", flap)
	}
	if h := (Schedule{}).Health(0); h != nil {
		t.Fatalf("the zero schedule built health %+v", h)
	}
}

func TestDiskFaults(t *testing.T) {
	s := Manual(4, 100,
		Fault{Kind: DiskCorrupt, Rank: 1, Start: 25, Cause: "disk drive"},
		Fault{Kind: DiskCorrupt, Rank: 1, Start: 60, Cause: "disk drive"},
		Fault{Kind: DiskCorrupt, Rank: 2, Start: 150, Cause: "disk drive"},
	)
	fired := map[int]bool{}
	check := func(label string, offset float64, wantIDs []int, wantAt []float64) {
		t.Helper()
		ids, at := s.DiskFaults(fired, offset)
		if !reflect.DeepEqual(ids, wantIDs) || !reflect.DeepEqual(at, wantAt) {
			t.Fatalf("%s: pending disk faults %v at %v, want %v at %v", label, ids, at, wantIDs, wantAt)
		}
	}
	// The first of rank 1, none past the horizon, each on the segment's clock.
	check("start", 0, []int{-1, 0, -1, -1}, []float64{0, 25, 0, 0})
	check("offset", 10, []int{-1, 0, -1, -1}, []float64{0, 15, 0, 0})
	fired[0] = true
	check("after the first fired", 10, []int{-1, 1, -1, -1}, []float64{0, 50, 0, 0})
	s.Retire(fired, 60)
	check("after retiring through t=60", 60, []int{-1, -1, -1, -1}, []float64{0, 0, 0, 0})
}
