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
// Each kernel has three bodies that cannot be told apart from the result.
// The plain Go loop below spells the arithmetic once, every multiply that
// feeds an add written as math.FMA: Rsqrt (newton.go) for the reciprocal
// square root — no hardware square root, no divide — and one fixed order of
// fused operations around it. On amd64 the assembly in lanes_amd64.s issues
// those operations, one for one, for four sinks per YMM register (AVX2 +
// FMA) and for eight per ZMM register (AVX-512F), one sink per lane; a
// bucket takes eight-lane blocks while more than four sinks remain and a
// four-lane block for the tail. Every operation is correctly rounded and
// none crosses lanes, so a sink gets the same bits from any width and from
// the Go loop, on every host (DESIGN.md, "Lanes = sinks").
//
// The assembly iterates on r2+eps2 without Rsqrt's range test. It is entered
// only with eps2 >= rsqrtMin, which bounds every argument from below, and
// keeps a running maximum of the arguments' bit patterns; a block whose
// maximum reaches rsqrtMax (or a NaN) is discarded and its sinks go through
// the Go loop. It realizes the r2 == 0 self-exclusion without branching, by
// zeroing the source mass (AVX2) or the product m*rinv and the potential
// update (AVX-512, under an opmask): the acceleration terms then add an
// exact +-0 and the potential keeps its bits — bitwise no-ops (a running
// sum that starts at +0 can never be -0 under round-to-nearest).

// KernelISA names the kernel bodies this process runs: "avx512" (eight-lane
// blocks, four-lane tails), "avx2" or "go".
func KernelISA() string {
	switch kernelLanes {
	case 8:
		return "avx512"
	case 4:
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

// bodyKernel accumulates into (ax, ay, az, pot)[j] the softened field at
// sink j from every body of every segment, in list order. Zero-separation
// pairs (a sink meeting itself inside its own bucket) are skipped, matching
// the per-body traversal's self-exclusion. Each sink's sums over the whole
// list are formed apart and added to its accumulators once, after the last
// segment, so where the list is cut into segments cannot be told from the
// result. The sink arrays and the four accumulator arrays must share one
// length.
func bodyKernel(segs [][]Source, sx, sy, sz []float64, eps2 float64, ax, ay, az, pot []float64) {
	if kernelLanes != 0 && eps2 >= rsqrtMin && len(segs) > 0 {
		bodyKernelLanes(segs, sx, sy, sz, eps2, ax, ay, az, pot)
		return
	}
	bodyKernelGo(segs, sx, sy, sz, eps2, ax, ay, az, pot)
}

// bodyKernelGo is the portable body and the oracle of the assembly. The
// per-body walk (htree.Tree.Accel) repeats its operations for one sink.
func bodyKernelGo(segs [][]Source, sx, sy, sz []float64, eps2 float64, ax, ay, az, pot []float64) {
	for j := range sx {
		px, py, pz := sx[j], sy[j], sz[j]
		var fx, fy, fz, p float64
		for _, seg := range segs {
			for i := range seg {
				s := &seg[i]
				dx := s.Pos[0] - px
				dy := s.Pos[1] - py
				dz := s.Pos[2] - pz
				r2 := math.FMA(dz, dz, math.FMA(dy, dy, dx*dx))
				if r2 == 0 {
					continue
				}
				rinv := Rsqrt(r2 + eps2)
				mr3 := (s.Mass * rinv) * (rinv * rinv)
				fx = math.FMA(mr3, dx, fx)
				fy = math.FMA(mr3, dy, fy)
				fz = math.FMA(mr3, dz, fz)
				p = math.FMA(-s.Mass, rinv, p)
			}
		}
		ax[j] += fx
		ay[j] += fy
		az[j] += fz
		pot[j] += p
	}
}
