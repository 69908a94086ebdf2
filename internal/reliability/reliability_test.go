package reliability

import (
	"math"
	"testing"
)

func TestPopulation(t *testing.T) {
	if Population(DRAMStick, 294) != 588 {
		t.Fatal("two DRAM sticks per node")
	}
	if Population(SwitchPort, 294) != 304 {
		t.Fatal("304 switch ports")
	}
	if Population(DiskDrive, 294) != 294 {
		t.Fatal("one disk per node")
	}
}

// The calibrated expectations must equal the paper's counts.
func TestExpectedCountsMatchPaper(t *testing.T) {
	install, operating := ExpectedCounts(294, 9)
	for c, want := range PaperObserved.Install {
		if got := install[c]; math.Abs(got-float64(want)) > 0.02*float64(want)+0.01 {
			t.Errorf("install %s: expected %.2f want %d", c, got, want)
		}
	}
	for c, want := range PaperObserved.NineMonths {
		got := operating[c]
		// exponential depletion makes E slightly below rate*T; allow 5%
		if math.Abs(got-float64(want)) > 0.06*float64(want)+0.01 {
			t.Errorf("operating %s: expected %.2f want %d", c, got, want)
		}
	}
}

// A Monte-Carlo average over many seeds must converge to the paper counts.
func TestSimulationConvergesToPaper(t *testing.T) {
	const runs = 400
	sumOp := map[Component]float64{}
	sumIn := map[Component]float64{}
	for seed := int64(0); seed < runs; seed++ {
		sim := Simulate(Options{Seed: seed})
		for c, n := range sim.Counts(true) {
			sumIn[c] += float64(n)
		}
		for c, n := range sim.Counts(false) {
			sumOp[c] += float64(n)
		}
	}
	for c, want := range PaperObserved.NineMonths {
		got := sumOp[c] / runs
		if math.Abs(got-float64(want)) > 0.2*float64(want)+0.3 {
			t.Errorf("MC operating %s: %.2f want ~%d", c, got, want)
		}
	}
	for c, want := range PaperObserved.Install {
		got := sumIn[c] / runs
		if math.Abs(got-float64(want)) > 0.2*float64(want)+0.3 {
			t.Errorf("MC install %s: %.2f want ~%d", c, got, want)
		}
	}
}

// Simulate is a pure function of its options: the same seed must reproduce
// the same failure history event for event. The fault injector relies on
// this to replay identical schedules across checkpoint-restart segments.
func TestSimulateDeterministicPerSeed(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a := Simulate(Options{Seed: seed})
		b := Simulate(Options{Seed: seed})
		if len(a.Events) != len(b.Events) {
			t.Fatalf("seed %d: %d vs %d events", seed, len(a.Events), len(b.Events))
		}
		for i := range a.Events {
			if a.Events[i] != b.Events[i] {
				t.Fatalf("seed %d event %d: %+v vs %+v", seed, i, a.Events[i], b.Events[i])
			}
		}
	}
	if len(Simulate(Options{Seed: 1}).Events) == len(Simulate(Options{Seed: 2}).Events) {
		// Different seeds *can* collide on count, but the histories must
		// differ somewhere; check the first operating failure time.
		a, b := Simulate(Options{Seed: 1}), Simulate(Options{Seed: 2})
		same := true
		for i := range a.Events {
			if a.Events[i] != b.Events[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("seeds 1 and 2 drew identical histories")
		}
	}
}

// Property test: the Monte-Carlo mean over many seeds must sit within 3
// standard errors of the calibrated expectation for every component class.
// Per-run counts are sums of independent Bernoulli draws, so their variance
// is at most the mean lambda; sigma_mean = sqrt(lambda/runs) is therefore a
// conservative standard error.
func TestSimulateMeanWithin3Sigma(t *testing.T) {
	const runs = 300
	sumIn := map[Component]float64{}
	sumOp := map[Component]float64{}
	for seed := int64(1000); seed < 1000+runs; seed++ {
		sim := Simulate(Options{Seed: seed})
		for c, n := range sim.Counts(true) {
			sumIn[c] += float64(n)
		}
		for c, n := range sim.Counts(false) {
			sumOp[c] += float64(n)
		}
	}
	wantIn, wantOp := ExpectedCounts(294, 9)
	check := func(phase string, want map[Component]float64, sum map[Component]float64) {
		for c, lambda := range want {
			mean := sum[c] / runs
			sigma := math.Sqrt(lambda / runs)
			if d := math.Abs(mean - lambda); d > 3*sigma {
				t.Errorf("%s %s: mean %.3f vs expected %.3f — off by %.2f sigma",
					phase, c, mean, lambda, d/sigma)
			}
		}
	}
	check("install", wantIn, sumIn)
	check("operating", wantOp, sumOp)
}

// Disks dominate steady-state failures, as the paper reports ("the most
// common failure has been with disk drives").
func TestDisksDominate(t *testing.T) {
	_, operating := ExpectedCounts(294, 9)
	for c, v := range operating {
		if c != DiskDrive && v >= operating[DiskDrive] {
			t.Fatalf("%s expectation %.2f >= disk %.2f", c, v, operating[DiskDrive])
		}
	}
}

// SMART predicts the majority of disk failures.
func TestSMARTMajorityPrediction(t *testing.T) {
	pred, disks := 0.0, 0.0
	for seed := int64(0); seed < 200; seed++ {
		sim := Simulate(Options{Seed: seed})
		for _, e := range sim.Events {
			if e.Month >= 0 && e.Component == DiskDrive {
				disks++
				if e.Predicted {
					pred++
				}
			}
		}
	}
	frac := pred / disks
	if frac <= 0.5 {
		t.Fatalf("SMART predicted fraction %.2f: paper says a majority", frac)
	}
	sim := Simulate(Options{Seed: 42})
	if f := sim.SMARTPredictedFraction(); f < 0 || f > 1 {
		t.Fatalf("fraction out of range: %v", f)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Month: -1, Component: DiskDrive, Unit: 3}
	if got := e.String(); got != "install: disk drive unit 3" {
		t.Fatalf("String = %q", got)
	}
	e.Month = 2
	if got := e.String(); got != "operating: disk drive unit 3" {
		t.Fatalf("String = %q", got)
	}
}
