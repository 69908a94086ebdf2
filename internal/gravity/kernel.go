// Package gravity implements the gravitational force kernels of the
// treecode: the O(N^2) direct-summation reference, the libm-sqrt
// micro-kernel of Table 5 (its Karp reciprocal-sqrt twin lives in the
// tests, which time the two), and the multipole (monopole + quadrupole)
// cell-body interaction used by the hashed oct-tree traversal.
package gravity

import (
	"math"

	"spacesim/internal/vec"
)

// KernelFlops is the accounted flop count per body-body interaction — the
// treecode community convention used by the paper's Mflop/s figures, which
// charges the reciprocal sqrt as part of the kernel so libm and Karp
// variants are comparable.
const KernelFlops = 38

// Source is one field-generating body for the micro-kernel: position and
// mass.
type Source struct {
	Pos  vec.V3
	Mass float64
}

// KernelLibm accumulates the softened gravitational acceleration and
// potential at sink from the sources, using the math library square root —
// the first column of Table 5.
func KernelLibm(sink vec.V3, src []Source, eps2 float64) (acc vec.V3, pot float64) {
	var ax, ay, az, p float64
	for i := range src {
		dx := src[i].Pos[0] - sink[0]
		dy := src[i].Pos[1] - sink[1]
		dz := src[i].Pos[2] - sink[2]
		r2 := dx*dx + dy*dy + dz*dz + eps2
		rinv := 1 / math.Sqrt(r2)
		rinv3 := rinv * rinv * rinv
		mr3 := src[i].Mass * rinv3
		ax += mr3 * dx
		ay += mr3 * dy
		az += mr3 * dz
		p -= src[i].Mass * rinv
	}
	return vec.V3{ax, ay, az}, p
}

// Direct computes accelerations and potentials for all bodies by direct
// summation (O(N^2)), the ground truth against which tree forces are
// validated. Self-interaction is excluded; eps is the Plummer softening
// length.
func Direct(pos []vec.V3, mass []float64, eps float64) (acc []vec.V3, pot []float64) {
	n := len(pos)
	acc = make([]vec.V3, n)
	pot = make([]float64, n)
	eps2 := eps * eps
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := pos[j].Sub(pos[i])
			r2 := d.Norm2() + eps2
			rinv := 1 / math.Sqrt(r2)
			rinv3 := rinv * rinv * rinv
			acc[i] = acc[i].AddScaled(mass[j]*rinv3, d)
			acc[j] = acc[j].AddScaled(-mass[i]*rinv3, d)
			pot[i] -= mass[j] * rinv
			pot[j] -= mass[i] * rinv
		}
	}
	return acc, pot
}

// PotentialEnergy returns the total gravitational potential energy of the
// system: -sum_{i<j} m_i m_j / sqrt(r_ij^2 + eps^2).
func PotentialEnergy(pos []vec.V3, mass []float64, eps float64) float64 {
	e := 0.0
	eps2 := eps * eps
	for i := range pos {
		for j := i + 1; j < len(pos); j++ {
			r2 := pos[i].Sub(pos[j]).Norm2() + eps2
			e -= mass[i] * mass[j] / math.Sqrt(r2)
		}
	}
	return e
}
