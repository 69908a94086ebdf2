package gravity

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// ulpsFromExact returns |got - 1/sqrt(x)| in units of the last place of the
// exact value, computed at 200 bits.
func ulpsFromExact(x, got float64) float64 {
	bx := new(big.Float).SetPrec(200).SetFloat64(x)
	exact := new(big.Float).SetPrec(200).Quo(big.NewFloat(1), bx.Sqrt(bx))
	diff, _ := new(big.Float).Sub(new(big.Float).SetFloat64(got), exact).Float64()
	e, _ := exact.Float64()
	return math.Abs(diff) / (math.Nextafter(e, math.Inf(1)) - e)
}

func checkRsqrt(t *testing.T, x float64) {
	t.Helper()
	got, libm := Rsqrt(x), 1/math.Sqrt(x)
	if !(x >= rsqrtMin && x <= rsqrtMax) {
		if !sameBits(got, libm) {
			t.Fatalf("Rsqrt(%v) = %v (%#x) outside its range, 1/math.Sqrt gives %v (%#x)", x, got, math.Float64bits(got), libm, math.Float64bits(libm))
		}
		return
	}
	// Against the exact value, not against 1/math.Sqrt: that rounds twice,
	// strays up to 1.5 ulp itself, and so sits up to 3 ulp from Rsqrt.
	if d := ulpsFromExact(x, got); d > 2 {
		t.Fatalf("Rsqrt(%v) = %v, %v ulp from the exact value (1/math.Sqrt gives %v)", x, got, d, libm)
	}
	// Exact under scaling by 4^k: same mantissa bits, exponent shifted by -k.
	for _, k := range []int{-3, 1, 40, -211} {
		if s := math.Ldexp(x, 2*k); s >= rsqrtMin && s <= rsqrtMax {
			if gs := Rsqrt(s); gs != math.Ldexp(got, -k) {
				t.Fatalf("Rsqrt(4^%d * %v) = %v, want exactly 2^%d * %v", k, x, gs, -k, got)
			}
		}
	}
}

// FuzzRsqrt checks the contract of Rsqrt on any bit pattern: within its
// range at most 2 ulp from the exact value and exact under power-of-four
// scaling, outside
// it (zeros, subnormals, infinities, NaNs, negatives, the far exponents)
// 1/math.Sqrt itself.
func FuzzRsqrt(f *testing.F) {
	for e := -1050; e <= 1050; e += 50 {
		f.Add(math.Float64bits(math.Ldexp(1, e)))                          // mantissa all zeros
		f.Add(math.Float64bits(math.Nextafter(math.Ldexp(2, e), 0)))       // mantissa all ones
		f.Add(math.Float64bits(math.Ldexp(1.9999999999999998, e)) ^ 1<<51) // and one in between
	}
	for _, x := range []float64{
		rsqrtMin, math.Nextafter(rsqrtMin, 0), math.Nextafter(rsqrtMin, 1),
		rsqrtMax, math.Nextafter(rsqrtMax, 0), math.Nextafter(rsqrtMax, math.Inf(1)),
		0, math.Copysign(0, -1), 5e-324, 2.2250738585072009e-308, math.SmallestNonzeroFloat64 * 3,
		math.Inf(1), math.Inf(-1), math.NaN(), -1, -1e-310, math.MaxFloat64, 1, 2, 3, 4,
	} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkRsqrt(t, math.Float64frombits(bits))
	})
}

// A spread of the whole range through the same check, with the worst error
// logged: the figure DESIGN.md quotes is 1.96 ulp over four million samples.
func TestRsqrtWithinTwoUlpOfExact(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	worst := 0.0
	for i := 0; i < 100000; i++ {
		x := math.Ldexp(1+rng.Float64(), rng.Intn(2000)-1000)
		checkRsqrt(t, x)
		worst = max(worst, ulpsFromExact(x, Rsqrt(x)))
	}
	t.Logf("worst error %.3f ulp of the exact 1/sqrt over 100000 samples", worst)
}
