package gravity

import (
	"math"

	"spacesim/internal/vec"
)

// Batched kernels (the 2HOT-style grouped evaluation): one interaction list
// is built per leaf bucket and applied to every sink body in the bucket.
// The list holds references — direct bodies as segments of []Source that
// live in the tree or in a fetch reply, accepted cells as pointers to their
// multipoles (List, eval.go) — and the kernels read each source through its
// reference once per group of sinks.
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

// SoA is an owned list of direct-interaction bodies: the rows a caller
// pushes, kept as one []Source, which is the form the body kernel reads a
// segment in. The name dates from the four parallel arrays the kernels
// used to stream and is what bench/ spells.
type SoA struct {
	rows []Source
}

// Len returns the number of particles in the list.
func (s *SoA) Len() int { return len(s.rows) }

// Reset empties the list, keeping the backing array for reuse.
func (s *SoA) Reset() { s.rows = s.rows[:0] }

// Push appends one particle.
func (s *SoA) Push(p vec.V3, m float64) {
	s.rows = append(s.rows, Source{Pos: p, Mass: m})
}

// Rows returns the list as one body segment, valid until the next Push.
func (s *SoA) Rows() []Source { return s.rows }

// Sort orders the list by (x, y, z, m). The kernels sum in list order, so
// sorting makes the accumulated floating-point result a canonical function
// of the particle *set*. The seed's parallel engine did this to every
// list; core now sums in tree order and keeps Sort as a test oracle.
func (s *SoA) Sort() { sortRows(s.rows, lessSources) }

func lessSources(a, b *Source) bool {
	for c := range a.Pos {
		if a.Pos[c] != b.Pos[c] {
			return a.Pos[c] < b.Pos[c]
		}
	}
	return a.Mass < b.Mass
}

// sortRows is a median-of-three quicksort with insertion sort below 12
// elements, the list sort of SoA and MultipoleSoA: in place and
// allocation-free, comparing rows where they lie (slices.SortFunc, which
// passes them by value, takes twice as long on these 32- and 80-byte rows).
func sortRows[T any](s []T, less func(a, b *T) bool) {
	lo, hi := 0, len(s)-1
	for hi-lo > 11 {
		mid := lo + (hi-lo)/2
		if less(&s[mid], &s[lo]) {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if less(&s[hi], &s[mid]) {
			s[hi], s[mid] = s[mid], s[hi]
			if less(&s[mid], &s[lo]) {
				s[mid], s[lo] = s[lo], s[mid]
			}
		}
		s[mid], s[hi-1] = s[hi-1], s[mid]
		p := hi - 1
		i, j := lo, hi-1
		for {
			i++
			for less(&s[i], &s[p]) {
				i++
			}
			j--
			for less(&s[p], &s[j]) {
				j--
			}
			if i >= j {
				break
			}
			s[i], s[j] = s[j], s[i]
		}
		s[i], s[hi-1] = s[hi-1], s[i]
		// Recurse into the smaller side, loop on the larger.
		if i-lo < hi-i {
			sortRows(s[lo:i], less)
			lo = i + 1
		} else {
			sortRows(s[i+1:hi+1], less)
			hi = i - 1
		}
	}
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && less(&s[j], &s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// bodyKernelLibm accumulates into (ax, ay, az, pot)[j] the softened field at
// sink j from every body of every segment, in list order, using the math
// library square root. Zero-separation pairs (a sink meeting itself inside
// its own bucket) are skipped, matching the per-body traversal's
// self-exclusion. Each sink's sums over the whole list are formed apart and
// added to its accumulators once, after the last segment, so where the
// list is cut into segments cannot be told from the result. The sink
// arrays and the four accumulator arrays must share one length.
func bodyKernelLibm(segs [][]Source, sx, sy, sz []float64, eps2 float64, ax, ay, az, pot []float64) {
	if useAVX2 && eps2 != 0 && len(segs) > 0 {
		bodyKernelAVX2(segs, sx, sy, sz, eps2, ax, ay, az, pot)
		return
	}
	bodyKernelLibmGo(segs, sx, sy, sz, eps2, ax, ay, az, pot)
}

// bodyKernelLibmGo is the portable body and the oracle of bodyLanesAVX2:
// the seed's batch loop, with the segments as one more loop level.
func bodyKernelLibmGo(segs [][]Source, sx, sy, sz []float64, eps2 float64, ax, ay, az, pot []float64) {
	for j := range sx {
		px, py, pz := sx[j], sy[j], sz[j]
		var fx, fy, fz, p float64
		for _, seg := range segs {
			for i := range seg {
				s := &seg[i]
				dx := s.Pos[0] - px
				dy := s.Pos[1] - py
				dz := s.Pos[2] - pz
				r2 := dx*dx + dy*dy + dz*dz
				if r2 == 0 {
					continue
				}
				r2 += eps2
				rinv := 1 / math.Sqrt(r2)
				rinv3 := rinv * rinv * rinv
				mr3 := s.Mass * rinv3
				fx += mr3 * dx
				fy += mr3 * dy
				fz += mr3 * dz
				p -= s.Mass * rinv
			}
		}
		ax[j] += fx
		ay[j] += fy
		az[j] += fz
		pot[j] += p
	}
}

// bodyKernelKarp is the body kernel with the reciprocal square root
// computed by the Karp decomposition: the seed's loop, one KarpRsqrt call
// per interaction. It is the paper's Table 5 exhibit on the grouped path
// (Evaluator.UseKarp), not a tuned kernel — on hardware with a pipelined
// sqrt it is slower than bodyKernelLibm, which is the point of the
// comparison `ssbench kernels` records.
func bodyKernelKarp(segs [][]Source, sx, sy, sz []float64, eps2 float64, ax, ay, az, pot []float64) {
	for j := range sx {
		px, py, pz := sx[j], sy[j], sz[j]
		var fx, fy, fz, p float64
		for _, seg := range segs {
			for i := range seg {
				s := &seg[i]
				dx := s.Pos[0] - px
				dy := s.Pos[1] - py
				dz := s.Pos[2] - pz
				r2 := dx*dx + dy*dy + dz*dz
				if r2 == 0 {
					continue
				}
				rinv := KarpRsqrt(r2 + eps2)
				rinv3 := rinv * rinv * rinv
				mr3 := s.Mass * rinv3
				fx += mr3 * dx
				fy += mr3 * dy
				fz += mr3 * dz
				p -= s.Mass * rinv
			}
		}
		ax[j] += fx
		ay[j] += fy
		az[j] += fz
		pot[j] += p
	}
}
