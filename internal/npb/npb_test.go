package npb

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"spacesim/internal/machine"
	"spacesim/internal/netsim"
)

func cl() machine.Cluster { return machine.SpaceSimulator(netsim.ProfileLAM) }

func mustRun(t *testing.T, b Benchmark, procs int, class string) Result {
	t.Helper()
	res, err := Run(b, cl(), procs, class)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("%s p=%d class %s failed verification: %s", b, procs, class, res.VerifyDetail)
	}
	if res.MopsTotal <= 0 || res.ElapsedVirtual <= 0 {
		t.Fatalf("%s: missing rate: %+v", b, res)
	}
	return res
}

func TestAllBenchmarksVerifySmall(t *testing.T) {
	for _, b := range []Benchmark{CG, MG, FT, IS, EP, BT, SP, LU} {
		for _, p := range []int{1, 4} {
			mustRun(t, b, p, "A")
		}
	}
}

func TestNonPowerOfTwoRanks(t *testing.T) {
	// IS and EP have no grid constraint; CG/LU accept any divisor of the
	// grid edge.
	for _, b := range []Benchmark{IS, EP} {
		mustRun(t, b, 3, "A")
	}
	mustRun(t, CG, 8, "A")
	mustRun(t, LU, 16, "A")
}

func TestUnknownClassRejected(t *testing.T) {
	if _, err := Run(CG, cl(), 2, "Z"); err == nil {
		t.Fatal("bad class must fail")
	}
}

func TestFFTMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 32
	a := make([]complex128, n)
	for i := range a {
		a[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	want := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k*j) / float64(n)
			s += a[j] * cmplx.Rect(1, ang)
		}
		want[k] = s
	}
	got := append([]complex128(nil), a...)
	fft(got, false)
	for k := range got {
		if cmplx.Abs(got[k]-want[k]) > 1e-10 {
			t.Fatalf("fft[%d] = %v want %v", k, got[k], want[k])
		}
	}
	// inverse round trip
	fft(got, true)
	for k := range got {
		if cmplx.Abs(got[k]-a[k]) > 1e-12 {
			t.Fatalf("ifft roundtrip at %d", k)
		}
	}
}

func TestThomasSolveAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 17
	l := 0.4
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.Float64() - 0.5
	}
	x := append([]float64(nil), rhs...)
	thomasSolve(x, l)
	// verify (1+2l)x_i - l x_{i-1} - l x_{i+1} = rhs_i
	for i := 0; i < n; i++ {
		v := (1 + 2*l) * x[i]
		if i > 0 {
			v -= l * x[i-1]
		}
		if i < n-1 {
			v -= l * x[i+1]
		}
		if math.Abs(v-rhs[i]) > 1e-12 {
			t.Fatalf("thomas residual %g at %d", v-rhs[i], i)
		}
	}
}

// Table 3 shape: per-benchmark ordering of 64-processor class C rates.
// Paper: LU 27942 > BT 17032 > FT 9860 > SP 7822 > CG 3291 >> IS 232.
func TestTable3Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("large virtual run")
	}
	rates := map[Benchmark]float64{}
	for _, b := range []Benchmark{BT, SP, LU, CG, FT, IS} {
		res := mustRun(t, b, 64, "C")
		rates[b] = res.MopsTotal
	}
	order := []Benchmark{LU, BT, FT, SP, CG, IS}
	for i := 1; i < len(order); i++ {
		if rates[order[i]] >= rates[order[i-1]] {
			t.Fatalf("ordering violated: %s (%.0f) >= %s (%.0f); all=%v",
				order[i], rates[order[i]], order[i-1], rates[order[i-1]], rates)
		}
	}
	// Magnitudes within 2x of the paper's SS column.
	paper := map[Benchmark]float64{BT: 17032, SP: 7822, LU: 27942, CG: 3291, FT: 9860, IS: 232}
	for b, want := range paper {
		got := rates[b]
		if got < want/2 || got > want*2 {
			t.Errorf("%s class C 64p: %.0f Mop/s, paper %.0f (off by >2x)", b, got, want)
		}
	}
}

// Scaling shape (Figures 4/5): total Mop/s must grow with processor count,
// and per-processor Mop/s must decay gently for the grid codes but fall
// faster for the alltoall-bound FT.
func TestScalingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("large virtual run")
	}
	perProc := func(b Benchmark, procs []int) []float64 {
		out := make([]float64, len(procs))
		for i, p := range procs {
			res := mustRun(t, b, p, "C")
			out[i] = res.MopsPerProc
		}
		return out
	}
	procs := []int{4, 16, 64}
	bt := perProc(BT, procs)
	cg := perProc(CG, procs)
	ft := perProc(FT, procs)
	loss := func(xs []float64) float64 { return xs[len(xs)-1] / xs[0] }
	// BT (overlapped multipartition comm) stays nearly flat, as in Fig. 5.
	if loss(bt) < 0.9 {
		t.Fatalf("BT per-proc efficiency fell to %.2f; should stay near flat", loss(bt))
	}
	// The alltoall-bound FT and the latency-bound CG lose distinctly more
	// efficiency than BT — the Figure 4/5 separation.
	if loss(ft) >= 0.95*loss(bt) {
		t.Fatalf("FT (%.2f) should scale worse than BT (%.2f)", loss(ft), loss(bt))
	}
	if loss(cg) >= 0.95*loss(bt) {
		t.Fatalf("CG (%.2f) should scale worse than BT (%.2f)", loss(cg), loss(bt))
	}
}

// Figure 5's LU feature: at fixed class size, enough processors shrink the
// per-rank working set toward cache and LU's per-processor rate *rises*.
func TestLUCacheSuperlinearity(t *testing.T) {
	if testing.Short() {
		t.Skip("large virtual run")
	}
	r16 := mustRun(t, LU, 16, "B")
	r64 := mustRun(t, LU, 64, "B")
	if r64.MopsPerProc <= r16.MopsPerProc {
		t.Fatalf("LU class B per-proc rate should rise 16->64 procs (cache): %.1f -> %.1f",
			r16.MopsPerProc, r64.MopsPerProc)
	}
}

// Table 2 row sanity: the memory-bound benchmarks (CG, MG, SP) modeled under
// slow memory must degrade close to the 0.6 scaling, while LU degrades less.
func TestSlowMemoryShape(t *testing.T) {
	slowCluster := cl()
	slowCluster.Node.StreamBps *= 0.6
	ratio := func(b Benchmark) float64 {
		norm := mustRun(t, b, 1, "A")
		res, err := Run(b, slowCluster, 1, "A")
		if err != nil || !res.Verified {
			t.Fatalf("%s slow-mem run failed: %v %s", b, err, res.VerifyDetail)
		}
		return res.MopsTotal / norm.MopsTotal
	}
	cgR, luR := ratio(CG), ratio(LU)
	if cgR > 0.68 {
		t.Fatalf("CG slow-mem ratio %.3f: should be near 0.6", cgR)
	}
	if luR <= cgR {
		t.Fatalf("LU (%.3f) must be less memory-sensitive than CG (%.3f)", luR, cgR)
	}
}

func TestClassesComplete(t *testing.T) {
	for _, b := range []Benchmark{BT, SP, LU, MG, CG, FT, IS, EP} {
		cs := Classes(b)
		for _, name := range []string{"A", "B", "C", "D"} {
			c, ok := cs[name]
			if !ok {
				t.Fatalf("%s missing class %s", b, name)
			}
			if c.N <= 0 || c.Iters <= 0 {
				t.Fatalf("%s class %s malformed: %+v", b, name, c)
			}
		}
		// classes must grow
		if cs["D"].N <= cs["B"].N {
			t.Fatalf("%s class D not larger than B", b)
		}
	}
}

func TestActualSizeConstraints(t *testing.T) {
	for _, b := range []Benchmark{CG, MG, FT, BT, SP, LU} {
		for _, p := range []int{1, 2, 4, 8, 16, 32, 64} {
			g := ActualSize(b, p)
			if g%p != 0 {
				t.Fatalf("%s p=%d: actual %d not divisible", b, p, g)
			}
			if b == MG && g/p < 2 {
				t.Fatalf("MG p=%d: slab too thin", p)
			}
		}
	}
}
