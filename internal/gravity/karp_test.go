package gravity

import (
	"math"

	"spacesim/internal/vec"
)

// The Karp decomposition of the reciprocal square root (A. Karp, 1992, as
// cited by the paper): range-reduce the argument by exponent manipulation,
// look up a first-order Chebyshev fit of 1/sqrt(m) on [1,4) in a table, and
// polish with Newton-Raphson iterations — a sequence of adds and multiplies
// only, which pipelines where the hardware sqrt/divide chain stalls. It is
// the second column of Table 5, timed against KernelLibm by
// BenchmarkKernelKarp; the production kernels take Rsqrt (newton.go).

// karpTableBits sets the lookup-table size: 2^bits segments over [1,4).
const karpTableBits = 8

// karpSeg holds the linear Chebyshev fit y ~ a + b*m on one segment.
type karpSeg struct{ a, b float64 }

var karpTable = buildKarpTable()

// buildKarpTable fits 1/sqrt(m) on each of 2^karpTableBits segments of
// [1,4) with the degree-1 Chebyshev interpolant (the fit through the two
// Chebyshev nodes of the segment, which minimizes worst-case error among
// linear interpolants up to a constant).
func buildKarpTable() [1 << karpTableBits]karpSeg {
	var tbl [1 << karpTableBits]karpSeg
	n := len(tbl)
	w := 3.0 / float64(n) // segment width over [1,4)
	for i := range tbl {
		lo := 1.0 + float64(i)*w
		hi := lo + w
		c, h := (lo+hi)/2, (hi-lo)/2
		// Chebyshev nodes of degree 1 on [lo,hi]
		x0 := c - h/math.Sqrt2
		x1 := c + h/math.Sqrt2
		y0 := 1 / math.Sqrt(x0)
		y1 := 1 / math.Sqrt(x1)
		b := (y1 - y0) / (x1 - x0)
		a := y0 - b*x0
		tbl[i] = karpSeg{a: a, b: b}
	}
	return tbl
}

// KarpRsqrt returns 1/sqrt(x) using the Karp decomposition with two
// Newton-Raphson iterations (relative error below 1e-11 across the full
// double range; see the package tests). Non-normal inputs take a slow
// path that matches 1/math.Sqrt: subnormals are rescaled by an even power
// of two and refined at full accuracy, +-0 maps to +-Inf, +Inf to 0, and
// negative or NaN arguments to NaN.
func KarpRsqrt(x float64) float64 {
	bits := math.Float64bits(x)
	if e := bits >> 52 & 0x7ff; e == 0 || e == 0x7ff || bits>>63 != 0 {
		return karpRsqrtEdge(x)
	}
	exp := int(bits>>52&0x7ff) - 1023
	// mantissa m in [1,2)
	mbits := bits&(1<<52-1) | 1023<<52
	m := math.Float64frombits(mbits)
	// Write x = m' * 4^k with m' in [1,4): absorb an odd exponent into m.
	k := exp >> 1 // floor(exp/2), also for negative exp
	if exp&1 != 0 {
		m *= 2
	}
	// Table lookup + linear interpolation for y0 ~ 1/sqrt(m).
	idx := int((m - 1) * float64(len(karpTable)) / 3)
	if idx >= len(karpTable) {
		idx = len(karpTable) - 1
	}
	seg := karpTable[idx]
	y := seg.a + seg.b*m
	// Two Newton-Raphson steps: y <- y*(1.5 - 0.5*m*y*y).
	y = y * (1.5 - 0.5*m*y*y)
	y = y * (1.5 - 0.5*m*y*y)
	// Scale back: rsqrt(x) = 2^-k * rsqrt(m).
	scale := math.Float64frombits(uint64(1023-k) << 52)
	return y * scale
}

// karpRsqrtEdge handles the inputs the fast path's exponent extraction
// cannot: zeros, subnormals, infinities, NaNs and negatives. The seed
// extraction read `bits>>52` of a subnormal as exponent -1023 with a
// garbage mantissa; here subnormals are rescaled into the normal range by
// an exact even power of two first.
func karpRsqrtEdge(x float64) float64 {
	switch {
	case x == 0:
		// 1/math.Sqrt(+0) = +Inf, and math.Sqrt(-0) = -0 so 1/it = -Inf.
		if math.Signbit(x) {
			return math.Inf(-1)
		}
		return math.Inf(1)
	case x < 0 || math.IsNaN(x):
		return math.NaN()
	case math.IsInf(x, 1):
		return 0
	default:
		// Positive subnormal: x*2^108 is exact and normal (at least
		// 2^-966), and rsqrt scales back by the exact factor 2^54.
		return KarpRsqrt(x*0x1p108) * 0x1p54
	}
}

// KernelKarp is KernelLibm with the reciprocal square root computed by the
// Karp decomposition (adds and multiplies only) — the second column of
// Table 5.
func KernelKarp(sink vec.V3, src []Source, eps2 float64) (acc vec.V3, pot float64) {
	var ax, ay, az, p float64
	for i := range src {
		dx := src[i].Pos[0] - sink[0]
		dy := src[i].Pos[1] - sink[1]
		dz := src[i].Pos[2] - sink[2]
		r2 := dx*dx + dy*dy + dz*dz + eps2
		rinv := KarpRsqrt(r2)
		rinv3 := rinv * rinv * rinv
		mr3 := src[i].Mass * rinv3
		ax += mr3 * dx
		ay += mr3 * dy
		az += mr3 * dz
		p -= src[i].Mass * rinv
	}
	return vec.V3{ax, ay, az}, p
}
