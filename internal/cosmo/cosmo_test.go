package cosmo

import (
	"math"
	"math/rand"
	"testing"

	"spacesim/internal/fft"
	"spacesim/internal/vec"
)

func TestEdSGrowthAnalytic(t *testing.T) {
	c := EdS()
	// D(a) = a exactly in EdS
	for _, a := range []float64{0.05, 0.2, 0.5, 1.0} {
		if got := c.GrowthFactor(a); math.Abs(got-a) > 2e-3*a {
			t.Fatalf("D(%v) = %v want %v", a, got, a)
		}
	}
	// f = dlnD/dlna = 1
	if f := c.GrowthRate(0.3); math.Abs(f-1) > 1e-2 {
		t.Fatalf("EdS growth rate = %v", f)
	}
}

func TestLCDMGrowthSuppressed(t *testing.T) {
	c := LCDM()
	// Lambda suppresses late-time growth: D(0.5) > 0.5.
	if d := c.GrowthFactor(0.5); d <= 0.5 {
		t.Fatalf("LCDM D(0.5) = %v, want > 0.5", d)
	}
	// growth rate below 1 today
	if f := c.GrowthRate(1.0); f >= 1 {
		t.Fatalf("LCDM f(1) = %v, want < 1", f)
	}
}

func TestTransferFunctionShape(t *testing.T) {
	c := EdS()
	if got := c.TransferBBKS(1e-6); math.Abs(got-1) > 1e-3 {
		t.Fatalf("T(k->0) = %v", got)
	}
	// monotonically decreasing
	prev := 2.0
	for _, k := range []float64{0.001, 0.01, 0.1, 1, 10} {
		tk := c.TransferBBKS(k)
		if tk >= prev {
			t.Fatalf("T(k) not decreasing at k=%v", k)
		}
		prev = tk
	}
}

func TestSigma8Normalization(t *testing.T) {
	for _, c := range []Cosmology{EdS(), LCDM()} {
		if got := c.Sigma(8); math.Abs(got-c.Sigma8) > 1e-3 {
			t.Fatalf("%v: sigma(8) = %v want %v", c, got, c.Sigma8)
		}
	}
	// the power spectrum turns over: P rises at low k (n=1), falls at high k
	c := EdS()
	if c.Power(0.001) >= c.Power(0.02) {
		t.Fatal("P(k) should rise toward the turnover")
	}
	if c.Power(10) >= c.Power(0.05) {
		t.Fatal("P(k) should fall past the turnover")
	}
}

func TestFFT3DRoundTrip(t *testing.T) {
	n := 8
	rng := rand.New(rand.NewSource(1))
	a := make([]complex128, n*n*n)
	orig := make([]complex128, len(a))
	for i := range a {
		a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		orig[i] = a[i]
	}
	fft.Transform3D(a, n, false)
	fft.Transform3D(a, n, true)
	for i := range a {
		if d := a[i] - orig[i]; math.Hypot(real(d), imag(d)) > 1e-12 {
			t.Fatalf("roundtrip error at %d", i)
		}
	}
}

// The realized Gaussian field must reproduce the input power spectrum in
// band-averaged measurements, and the Zel'dovich displacements must be
// consistent (div psi = -delta at linear order).
func TestICsSpectrumAndStats(t *testing.T) {
	c := EdS()
	opt := ICOptions{GridN: 32, BoxMpch: 128, AStart: 0.1, Seed: 11}
	ics := GenerateICs(c, opt)
	if len(ics.Bodies) != 32*32*32 {
		t.Fatalf("bodies = %d", len(ics.Bodies))
	}
	// mean of delta ~ 0; variance > 0
	mean, varr := 0.0, 0.0
	for _, d := range ics.Delta {
		mean += d
	}
	mean /= float64(len(ics.Delta))
	for _, d := range ics.Delta {
		varr += (d - mean) * (d - mean)
	}
	varr /= float64(len(ics.Delta))
	if math.Abs(mean) > 1e-10 {
		t.Fatalf("mean delta = %v", mean)
	}
	if varr <= 0 {
		t.Fatal("no fluctuations generated")
	}
	// measured band power vs linear theory at a=AStart
	k, pk := MeasurePower(ics.Delta, opt.GridN, opt.BoxMpch, 8)
	d2 := c.GrowthFactor(opt.AStart)
	d2 *= d2
	good := 0
	for i := range k {
		want := c.Power(k[i]) * d2
		if want <= 0 {
			continue
		}
		if ratio := pk[i] / want; ratio > 0.5 && ratio < 2.0 {
			good++
		}
	}
	if good < len(k)*2/3 {
		t.Fatalf("only %d of %d power bands within 2x of linear theory", good, len(k))
	}
	// all particles inside the box, with growing-mode velocities aligned
	// with displacements
	for i, b := range ics.Bodies {
		for cth := 0; cth < 3; cth++ {
			if b.Pos[cth] < 0 || b.Pos[cth] >= opt.BoxMpch {
				t.Fatalf("body %d outside box: %v", i, b.Pos)
			}
		}
	}
}

// Larger sigma8 must yield a field with proportionally larger variance.
func TestICsAmplitudeScaling(t *testing.T) {
	lo := EdS()
	hi := EdS()
	hi.Sigma8 = 2 * lo.Sigma8
	opt := ICOptions{GridN: 16, BoxMpch: 64, AStart: 0.2, Seed: 4}
	vlo := fieldVar(GenerateICs(lo, opt).Delta)
	vhi := fieldVar(GenerateICs(hi, opt).Delta)
	if r := vhi / vlo; math.Abs(r-4) > 0.2 {
		t.Fatalf("variance ratio = %v want 4 (sigma8 doubled)", r)
	}
}

func fieldVar(xs []float64) float64 {
	v := 0.0
	for _, x := range xs {
		v += x * x
	}
	return v / float64(len(xs))
}

func TestFoFSyntheticClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var pos []vec.V3
	var mass []float64
	centers := []vec.V3{{10, 10, 10}, {30, 30, 30}, {10, 30, 10}}
	sizes := []int{100, 60, 30}
	for ci, c := range centers {
		for i := 0; i < sizes[ci]; i++ {
			p := c.Add(vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Scale(0.3))
			pos = append(pos, p)
			mass = append(mass, 1)
		}
	}
	// sparse background
	for i := 0; i < 50; i++ {
		pos = append(pos, vec.V3{rng.Float64() * 40, rng.Float64() * 40, rng.Float64() * 40})
		mass = append(mass, 1)
	}
	halos := FoFGroups(pos, mass, 0.8, 20)
	if len(halos) != 3 {
		t.Fatalf("found %d halos, want 3", len(halos))
	}
	// sorted by mass, matching the planted sizes approximately
	if halos[0].N < 95 || halos[1].N < 55 || halos[2].N < 25 {
		t.Fatalf("halo sizes %d,%d,%d", halos[0].N, halos[1].N, halos[2].N)
	}
	if halos[0].Center.Dist(centers[0]) > 0.5 {
		t.Fatalf("largest halo center %v", halos[0].Center)
	}
	if halos[0].Rmax <= 0 {
		t.Fatal("halo Rmax missing")
	}
}

// xi(r) of a uniform Poisson field is ~0; of a clustered field strongly
// positive at small r.
func TestTwoPointCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	box := 50.0
	var uniform []vec.V3
	for i := 0; i < 2000; i++ {
		uniform = append(uniform, vec.V3{rng.Float64() * box, rng.Float64() * box, rng.Float64() * box})
	}
	_, xiU := TwoPointCorrelation(uniform, box, 1, 20, 6)
	for b, x := range xiU {
		if math.Abs(x) > 0.5 {
			t.Fatalf("uniform xi[%d] = %v, want ~0", b, x)
		}
	}
	// clustered: pairs around parent points
	var clustered []vec.V3
	for i := 0; i < 300; i++ {
		c := vec.V3{rng.Float64() * box, rng.Float64() * box, rng.Float64() * box}
		for j := 0; j < 6; j++ {
			clustered = append(clustered, c.Add(vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Scale(0.8)))
		}
	}
	r, xiC := TwoPointCorrelation(clustered, box, 1, 20, 6)
	if xiC[0] < 3 {
		t.Fatalf("clustered xi(%.1f) = %v, want strongly positive", r[0], xiC[0])
	}
	if xiC[len(xiC)-1] > xiC[0]/3 {
		t.Fatalf("xi should decay with r: %v", xiC)
	}
}
