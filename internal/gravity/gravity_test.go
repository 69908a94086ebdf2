package gravity

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spacesim/internal/vec"
)

func TestKarpRsqrtAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	maxErr := 0.0
	for i := 0; i < 200000; i++ {
		// log-uniform over a wide dynamic range
		x := math.Exp(rng.Float64()*600 - 300)
		got := KarpRsqrt(x)
		want := 1 / math.Sqrt(x)
		e := math.Abs(got-want) / want
		if e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 1e-11 {
		t.Fatalf("max relative error = %g, want < 1e-11", maxErr)
	}
}

func TestKarpRsqrtSpecificValues(t *testing.T) {
	for _, x := range []float64{1, 2, 3, 4, 0.25, 1e-10, 1e10, math.Pi, 1.0000001, 3.9999999} {
		got := KarpRsqrt(x)
		want := 1 / math.Sqrt(x)
		if math.Abs(got-want)/want > 1e-11 {
			t.Errorf("KarpRsqrt(%v) = %v want %v", x, got, want)
		}
	}
}

// KernelKarp cubes KarpRsqrt for the force: x^(-3/2) to 1e-10.
func TestKarpRsqrt3(t *testing.T) {
	for _, x := range []float64{0.5, 1, 7, 1e6} {
		r := KarpRsqrt(x)
		want := math.Pow(x, -1.5)
		if got := r * r * r; math.Abs(got-want)/want > 1e-10 {
			t.Errorf("KarpRsqrt(%v)^3 = %v want %v", x, got, want)
		}
	}
}

func TestKarpRsqrtProperty(t *testing.T) {
	f := func(u float64) bool {
		x := math.Exp(math.Mod(u, 300)) // positive, wide range
		if x == 0 || math.IsInf(x, 0) || math.IsNaN(x) {
			return true
		}
		y := KarpRsqrt(x)
		// y^2 * x ~ 1
		return math.Abs(y*y*x-1) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func randomSystem(rng *rand.Rand, n int) ([]vec.V3, []float64) {
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i := range pos {
		pos[i] = vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		mass[i] = 0.5 + rng.Float64()
	}
	return pos, mass
}

func toSources(pos []vec.V3, mass []float64) []Source {
	src := make([]Source, len(pos))
	for i := range pos {
		src[i] = Source{Pos: pos[i], Mass: mass[i]}
	}
	return src
}

// The two kernel variants must agree to near machine precision.
func TestKernelVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pos, mass := randomSystem(rng, 300)
	src := toSources(pos, mass)
	sink := vec.V3{5, 0, 0}
	a1, p1 := KernelLibm(sink, src, 0.01)
	a2, p2 := KernelKarp(sink, src, 0.01)
	if a1.Sub(a2).Norm() > 1e-9*a1.Norm() {
		t.Fatalf("kernel acc mismatch: %v vs %v", a1, a2)
	}
	if math.Abs(p1-p2) > 1e-9*math.Abs(p1) {
		t.Fatalf("kernel pot mismatch: %v vs %v", p1, p2)
	}
}

// Direct summation must satisfy Newton's third law: total momentum change
// (sum of m*a) is zero.
func TestDirectMomentumConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pos, mass := randomSystem(rng, 100)
	acc, _ := Direct(pos, mass, 0.05)
	var f vec.V3
	for i := range acc {
		f = f.AddScaled(mass[i], acc[i])
	}
	if f.Norm() > 1e-10 {
		t.Fatalf("net force = %v", f)
	}
}

// Direct and the micro-kernel must agree when the kernel excludes self.
func TestDirectMatchesKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pos, mass := randomSystem(rng, 50)
	acc, pot := Direct(pos, mass, 0.02)
	for i := range pos {
		var others []Source
		for j := range pos {
			if j != i {
				others = append(others, Source{Pos: pos[j], Mass: mass[j]})
			}
		}
		a, p := KernelLibm(pos[i], others, 0.02*0.02)
		if a.Sub(acc[i]).Norm() > 1e-10*(1+acc[i].Norm()) {
			t.Fatalf("body %d: direct %v kernel %v", i, acc[i], a)
		}
		if math.Abs(p-pot[i]) > 1e-10*(1+math.Abs(pot[i])) {
			t.Fatalf("body %d: pot %v vs %v", i, pot[i], p)
		}
	}
}

// Two bodies at distance r with no softening feel Gm1m2/r^2 (G=1 units).
func TestTwoBodyAnalytic(t *testing.T) {
	pos := []vec.V3{{0, 0, 0}, {2, 0, 0}}
	mass := []float64{3, 5}
	acc, pot := Direct(pos, mass, 0)
	if math.Abs(acc[0][0]-5.0/4) > 1e-14 {
		t.Fatalf("acc[0] = %v want 1.25", acc[0])
	}
	if math.Abs(acc[1][0]+3.0/4) > 1e-14 {
		t.Fatalf("acc[1] = %v want -0.75", acc[1])
	}
	if math.Abs(pot[0]+2.5) > 1e-14 || math.Abs(pot[1]+1.5) > 1e-14 {
		t.Fatalf("pot = %v", pot)
	}
}

func TestPotentialEnergyPairwise(t *testing.T) {
	pos := []vec.V3{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}}
	mass := []float64{1, 2, 3}
	// pairs: (0,1): -2/1, (0,2): -3/1, (1,2): -6/sqrt(2)
	want := -2.0 - 3.0 - 6.0/math.Sqrt2
	got := PotentialEnergy(pos, mass, 0)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("U = %v want %v", got, want)
	}
}

// The multipole of a point set must reproduce the direct field far away,
// converging as the expansion predicts, and the quadrupole must beat the
// monopole.
func TestMultipoleConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// A lopsided cluster inside radius ~1.
	n := 64
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i := range pos {
		pos[i] = vec.V3{rng.Float64(), 0.5 * rng.Float64(), 0.25 * rng.Float64()}
		mass[i] = rng.Float64() + 0.1
	}
	mp := FromBodies(pos, mass)
	src := toSources(pos, mass)
	for _, d := range []float64{5.0, 10.0, 20.0} {
		p := vec.V3{d, d / 3, -d / 2}
		exact, exactPot := KernelLibm(p, src, 0)
		quadAcc, quadPot := mp.AccelAt(p, 0)
		monoAcc, _ := mp.MonopoleOnly(p, 0)
		errQuad := quadAcc.Sub(exact).Norm() / exact.Norm()
		errMono := monoAcc.Sub(exact).Norm() / exact.Norm()
		if errQuad > errMono {
			t.Fatalf("d=%v: quadrupole error %g worse than monopole %g", d, errQuad, errMono)
		}
		// Octupole-order remainder: error ~ (size/d)^3.
		bound := 8 * math.Pow(1.2/d, 3)
		if errQuad > bound {
			t.Fatalf("d=%v: quad error %g exceeds bound %g", d, errQuad, bound)
		}
		if math.Abs(quadPot-exactPot)/math.Abs(exactPot) > bound {
			t.Fatalf("d=%v: pot error too large", d)
		}
	}
}

// Combine must equal FromBodies on the union (parallel-axis theorem).
func TestMultipoleCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	posA, massA := randomSystem(rng, 30)
	posB, massB := randomSystem(rng, 40)
	a := FromBodies(posA, massA)
	b := FromBodies(posB, massB)
	merged := Combine(a, b)
	direct := FromBodies(append(append([]vec.V3{}, posA...), posB...), append(append([]float64{}, massA...), massB...))
	if math.Abs(merged.M-direct.M) > 1e-12 {
		t.Fatalf("mass %v vs %v", merged.M, direct.M)
	}
	if merged.COM.Sub(direct.COM).Norm() > 1e-12 {
		t.Fatalf("com %v vs %v", merged.COM, direct.COM)
	}
	for i := 0; i < 6; i++ {
		if math.Abs(merged.Q[i]-direct.Q[i]) > 1e-9 {
			t.Fatalf("Q[%d] = %v vs %v", i, merged.Q[i], direct.Q[i])
		}
	}
}

// The quadrupole tensor must be traceless.
func TestQuadrupoleTraceless(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pos, mass := randomSystem(rng, 20)
		mp := FromBodies(pos, mass)
		return math.Abs(mp.Q.Trace()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Combining an empty multipole is a no-op.
func TestCombineWithEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pos, mass := randomSystem(rng, 10)
	a := FromBodies(pos, mass)
	merged := Combine(a, Multipole{})
	if merged.M != a.M || merged.COM.Sub(a.COM).Norm() > 1e-14 {
		t.Fatal("empty combine changed the multipole")
	}
}

var benchSink vec.V3

// The Table 5 micro-kernel on the host machine, libm variant.
func BenchmarkKernelLibm(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	pos, mass := randomSystem(rng, 1000)
	src := toSources(pos, mass)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = KernelLibm(vec.V3{3, 3, 3}, src, 0.01)
	}
	b.SetBytes(0)
	b.ReportMetric(float64(KernelFlops*len(src)*b.N)/b.Elapsed().Seconds()/1e6, "Mflop/s")
}

// The Table 5 micro-kernel on the host machine, Karp variant.
func BenchmarkKernelKarp(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	pos, mass := randomSystem(rng, 1000)
	src := toSources(pos, mass)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = KernelKarp(vec.V3{3, 3, 3}, src, 0.01)
	}
	b.ReportMetric(float64(KernelFlops*len(src)*b.N)/b.Elapsed().Seconds()/1e6, "Mflop/s")
}
