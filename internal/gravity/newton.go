package gravity

import "math"

// The reciprocal square root of the production kernels: IEEE basic
// operations only — an integer seed, then Newton-Raphson steps of two
// multiplies and one fused multiply-add each — so it pipelines where the
// hardware square root and divider stall (the paper's reason for Karp's
// decomposition), and a SIMD lane that issues the same operations returns
// the same bits as this function on every host.

const (
	// rsqrtMagic - bits(x)>>1 is a first guess of 1/sqrt(x) within 3.5%.
	// The shift halves the exponent exactly, so the guess for 4^k x is 2^-k
	// times the guess for x, and every later operation keeps that factor.
	rsqrtMagic = 0x5fe6eb50c7b537a9

	// rsqrtMin and rsqrtMax bound the arguments Rsqrt iterates on: no guess,
	// half-argument or product under- or overflows between them.
	rsqrtMin = 0x1p-1000
	rsqrtMax = 0x1p1000
)

// Rsqrt returns 1/sqrt(x): within 2 ulp of the exact value for x in
// [rsqrtMin, rsqrtMax], with Rsqrt(4^k x) == 2^-k Rsqrt(x) exactly while
// both arguments are in that range; 1/math.Sqrt(x) for every other x
// (zeros, subnormals, infinities, NaNs, negatives).
func Rsqrt(x float64) float64 {
	if !(x >= rsqrtMin && x <= rsqrtMax) {
		return 1 / math.Sqrt(x)
	}
	y := math.Float64frombits(rsqrtMagic - math.Float64bits(x)>>1)
	h := 0.5 * x
	for range 4 {
		y *= math.FMA(-(h * y), y, 1.5)
	}
	return y
}
