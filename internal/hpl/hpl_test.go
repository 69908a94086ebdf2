package hpl

import (
	"math"
	"testing"
	"time"

	"spacesim/internal/machine"
	"spacesim/internal/netsim"
)

func cluster() machine.Cluster {
	return machine.SpaceSimulator(netsim.ProfileLAM)
}

func TestSerialLUSolveResidual(t *testing.T) {
	for _, n := range []int{1, 2, 16, 64, 100} {
		a, b := NewRandom(n, 42)
		work := &Matrix{N: n, A: append([]float64(nil), a.A...)}
		piv, err := work.LU()
		if err != nil {
			t.Fatal(err)
		}
		x := work.Solve(piv, b)
		r := Residual(a, x, b)
		if r > 16 {
			t.Fatalf("n=%d: HPL residual %g fails threshold", n, r)
		}
	}
}

func TestLUSingular(t *testing.T) {
	m := &Matrix{N: 2, A: []float64{1, 2, 2, 4}}
	if _, err := m.LU(); err == nil {
		t.Fatal("rank-deficient matrix must fail")
	}
}

func TestFlopsCount(t *testing.T) {
	if got := Flops(3); math.Abs(got-(2.0/3.0*27+1.5*9)) > 1e-12 {
		t.Fatalf("Flops(3) = %v", got)
	}
	// dominant cubic term
	if Flops(1000)/1e9 < 0.666 {
		t.Fatal("cubic term missing")
	}
}

// The distributed factorization must produce the same solution quality as
// the serial one, for several rank counts and block sizes.
func TestParallelLUCorrectness(t *testing.T) {
	for _, tc := range []struct{ p, n, nb int }{
		{1, 64, 8},
		{2, 64, 8},
		{4, 96, 8},
		{3, 60, 10},
		{8, 128, 16},
	} {
		res, err := RunParallel(cluster(), tc.p, tc.n, tc.nb, 7)
		if err != nil {
			t.Fatal(err)
		}
		if res.Residual > 16 {
			t.Fatalf("p=%d n=%d: residual %g", tc.p, tc.n, res.Residual)
		}
		if res.Gflops <= 0 {
			t.Fatalf("p=%d: no rate computed", tc.p)
		}
	}
}

func TestParallelLURejectsBadBlocking(t *testing.T) {
	if _, err := RunParallel(cluster(), 2, 65, 8, 1); err == nil {
		t.Fatal("n not multiple of nb must fail")
	}
}

// Figure 3: the October 2002 configuration models to ~665 Gflop/s and the
// April 2003 configuration to ~757 Gflop/s (within 6%), with the ordering
// preserved: the LAM switch plus newer ATLAS is the improvement.
func TestModelReproducesFigure3(t *testing.T) {
	oct := ModelGflops(October2002())
	apr := ModelGflops(April2003())
	if e := math.Abs(oct-665.1) / 665.1; e > 0.06 {
		t.Fatalf("October model %.1f Gflop/s, paper 665.1 (err %.1f%%)", oct, e*100)
	}
	if e := math.Abs(apr-757.1) / 757.1; e > 0.06 {
		t.Fatalf("April model %.1f Gflop/s, paper 757.1 (err %.1f%%)", apr, e*100)
	}
	if apr <= oct {
		t.Fatal("April run must beat October run")
	}
}

// Price/performance: the April figure crosses the paper's headline
// $1/Mflop/s milestone at 63.9 cents.
func TestDollarPerMflops(t *testing.T) {
	apr := ModelGflops(April2003())
	c := cluster()
	cpm := c.DollarsPerMflops(apr * 1e9)
	if cpm >= 1.0 {
		t.Fatalf("$%.3f/Mflops must be below $1", cpm)
	}
	if math.Abs(cpm-0.639) > 0.05 {
		t.Fatalf("$%.3f/Mflops, paper 0.639", cpm)
	}
}

// Single-node Table 2 row: Linpack scales weakly with memory (0.868) and
// strongly with CPU (0.788 at 0.75 clock) — compute-bound, unlike STREAM.
func TestLinpackClockScalingShape(t *testing.T) {
	// Model single-node Linpack as dgemm-efficiency compute plus a small
	// memory-bound fraction; see perfmodel for the full Table 2 machinery.
	// Here we verify the measured serial code is compute-dominated: time
	// must grow superlinearly from n to 2n (cubic flops, quadratic memory).
	// Each order is timed as the best of five runs, and the two orders
	// alternate, so a burst of host load that stalls some runs hits both
	// sizes rather than flattening the ratio.
	a1, _ := NewRandom(128, 1)
	a2, _ := NewRandom(256, 1)
	t1, t2 := math.Inf(1), math.Inf(1)
	for range 5 {
		t1 = min(t1, timeLU(a1))
		t2 = min(t2, timeLU(a2))
	}
	ratio := t2 / t1
	if ratio < 4.5 {
		t.Fatalf("LU time ratio for 2x size = %.1f, want >4.5 (cubic)", ratio)
	}
}

// timeLU returns the host seconds of one LU factorization of a copy of m.
func timeLU(m *Matrix) float64 {
	work := &Matrix{N: m.N, A: append([]float64(nil), m.A...)}
	start := nowSec()
	if _, err := work.LU(); err != nil {
		panic(err)
	}
	return nowSec() - start
}

func BenchmarkSerialLU256(b *testing.B) {
	a, _ := NewRandom(256, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := &Matrix{N: a.N, A: append([]float64(nil), a.A...)}
		if _, err := work.LU(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(Flops(256)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
}

func nowSec() float64 {
	return float64(time.Now().UnixNano()) / 1e9
}
