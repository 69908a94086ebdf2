package gravity

import (
	"math"

	"spacesim/internal/vec"
)

// Batched structure-of-arrays kernels (the 2HOT-style grouped evaluation):
// one interaction list is built per leaf bucket and applied to every sink
// body in the bucket, so the inner loops run over flat []float64 arrays.
//
// Each float64 kernel has two bodies. On amd64 with AVX2 the assembly in
// lanes_amd64.s evaluates four sinks per register, one sink per lane; the
// plain Go loop below it is the portable fallback and the oracle the
// assembly is tested bit-identical against. Per sink both apply the same
// correctly-rounded operations in list order, so which one ran cannot be
// told from the result (DESIGN.md, "Lanes = sinks").
//
// The assembly realizes the r2 == 0 self-exclusion by zeroing the source
// mass instead of branching. The acceleration terms then add an exact +-0
// and the potential subtracts 0*rinv — both bitwise no-ops (a running sum
// that starts at +0 can never be -0 under round-to-nearest). With eps == 0
// the excluded term would be 0*Inf, so that case takes the Go loop.

// KernelISA names the float64 kernel bodies this process runs: "avx2" or
// "go".
func KernelISA() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

// SoA is a particle list in structure-of-arrays layout, the source operand
// of the batched kernels.
type SoA struct {
	X, Y, Z, M []float64
}

// Len returns the number of particles in the list.
func (s *SoA) Len() int { return len(s.X) }

// Reset empties the list, keeping the backing arrays for reuse.
func (s *SoA) Reset() {
	s.X, s.Y, s.Z, s.M = s.X[:0], s.Y[:0], s.Z[:0], s.M[:0]
}

// Push appends one particle.
func (s *SoA) Push(p vec.V3, m float64) {
	s.X = append(s.X, p[0])
	s.Y = append(s.Y, p[1])
	s.Z = append(s.Z, p[2])
	s.M = append(s.M, m)
}

// PushSources appends a slice of AoS sources.
func (s *SoA) PushSources(src []Source) {
	for i := range src {
		s.Push(src[i].Pos, src[i].Mass)
	}
}

// Sort orders the list by (x, y, z, m). The batched kernels sum in list
// order, so sorting makes the accumulated floating-point result a canonical
// function of the particle *set*. The seed's parallel engine did this to
// every list; core now sums in tree order and keeps Sort as a test oracle.
func (s *SoA) Sort() {
	soaQuickSort(s, 0, s.Len()-1)
}

func soaLess(s *SoA, i, j int) bool {
	if s.X[i] != s.X[j] {
		return s.X[i] < s.X[j]
	}
	if s.Y[i] != s.Y[j] {
		return s.Y[i] < s.Y[j]
	}
	if s.Z[i] != s.Z[j] {
		return s.Z[i] < s.Z[j]
	}
	return s.M[i] < s.M[j]
}

func soaSwap(s *SoA, i, j int) {
	s.X[i], s.X[j] = s.X[j], s.X[i]
	s.Y[i], s.Y[j] = s.Y[j], s.Y[i]
	s.Z[i], s.Z[j] = s.Z[j], s.Z[i]
	s.M[i], s.M[j] = s.M[j], s.M[i]
}

// soaQuickSort is a median-of-three quicksort with insertion sort below 12
// elements, sorting the four parallel arrays in lockstep (sort.Interface
// would box the receiver; this stays allocation-free in the hot path).
func soaQuickSort(s *SoA, lo, hi int) {
	for hi-lo > 11 {
		mid := lo + (hi-lo)/2
		if soaLess(s, mid, lo) {
			soaSwap(s, mid, lo)
		}
		if soaLess(s, hi, mid) {
			soaSwap(s, hi, mid)
			if soaLess(s, mid, lo) {
				soaSwap(s, mid, lo)
			}
		}
		soaSwap(s, mid, hi-1)
		p := hi - 1
		i, j := lo, hi-1
		for {
			i++
			for soaLess(s, i, p) {
				i++
			}
			j--
			for soaLess(s, p, j) {
				j--
			}
			if i >= j {
				break
			}
			soaSwap(s, i, j)
		}
		soaSwap(s, i, hi-1)
		// Recurse into the smaller side, loop on the larger.
		if i-lo < hi-i {
			soaQuickSort(s, lo, i-1)
			lo = i + 1
		} else {
			soaQuickSort(s, i+1, hi)
			hi = i - 1
		}
	}
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && soaLess(s, j, j-1); j-- {
			soaSwap(s, j, j-1)
		}
	}
}

// KernelBatchLibm accumulates into (ax, ay, az, pot)[j] the softened field
// at sink j from every source, using the math library square root.
// Zero-separation pairs (a sink interacting with itself inside its own
// bucket) are skipped, matching the per-body traversal's self-exclusion.
// The sink arrays and the four accumulator arrays must share one length.
func KernelBatchLibm(sx, sy, sz []float64, src *SoA, eps2 float64, ax, ay, az, pot []float64) {
	if useAVX2 && eps2 != 0 && src.Len() > 0 {
		kernelBatchAVX2(sx, sy, sz, src, eps2, ax, ay, az, pot)
		return
	}
	kernelBatchLibmGo(sx, sy, sz, src, eps2, ax, ay, az, pot)
}

// kernelBatchLibmGo is the seed's batch loop, kept verbatim.
func kernelBatchLibmGo(sx, sy, sz []float64, src *SoA, eps2 float64, ax, ay, az, pot []float64) {
	n := src.Len()
	if n == 0 {
		return
	}
	xs, ys, zs, ms := src.X[:n], src.Y[:n], src.Z[:n], src.M[:n]
	for j := range sx {
		px, py, pz := sx[j], sy[j], sz[j]
		var fx, fy, fz, p float64
		for i := 0; i < n; i++ {
			dx := xs[i] - px
			dy := ys[i] - py
			dz := zs[i] - pz
			r2 := dx*dx + dy*dy + dz*dz
			if r2 == 0 {
				continue
			}
			r2 += eps2
			rinv := 1 / math.Sqrt(r2)
			rinv3 := rinv * rinv * rinv
			mr3 := ms[i] * rinv3
			fx += mr3 * dx
			fy += mr3 * dy
			fz += mr3 * dz
			p -= ms[i] * rinv
		}
		ax[j] += fx
		ay[j] += fy
		az[j] += fz
		pot[j] += p
	}
}

// KernelBatchKarp is the batch kernel with the reciprocal square root
// computed by the Karp decomposition: the seed's loop, one
// KarpRsqrt call per interaction. It is the paper's Table 5 exhibit on the
// grouped path (Evaluator.UseKarp), not a tuned kernel — on hardware with a
// pipelined sqrt it is slower than KernelBatchLibm, which is the point of
// the comparison `ssbench kernels` records.
func KernelBatchKarp(sx, sy, sz []float64, src *SoA, eps2 float64, ax, ay, az, pot []float64) {
	n := src.Len()
	if n == 0 {
		return
	}
	xs, ys, zs, ms := src.X[:n], src.Y[:n], src.Z[:n], src.M[:n]
	for j := range sx {
		px, py, pz := sx[j], sy[j], sz[j]
		var fx, fy, fz, p float64
		for i := 0; i < n; i++ {
			dx := xs[i] - px
			dy := ys[i] - py
			dz := zs[i] - pz
			r2 := dx*dx + dy*dy + dz*dz
			if r2 == 0 {
				continue
			}
			rinv := KarpRsqrt(r2 + eps2)
			rinv3 := rinv * rinv * rinv
			mr3 := ms[i] * rinv3
			fx += mr3 * dx
			fy += mr3 * dy
			fz += mr3 * dz
			p -= ms[i] * rinv
		}
		ax[j] += fx
		ay[j] += fy
		az[j] += fz
		pot[j] += p
	}
}
