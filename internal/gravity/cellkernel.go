package gravity

import "math"

// Batched cell kernel: the multipole (monopole + quadrupole) field of
// Multipole.AccelAt evaluated over a list of multipoles read where they
// lie — in the tree cell, the replicated slab or a MultipoleSoA's rows — so
// no Multipole value is copied per (cell, sink) pair. Per sink the cells are
// accumulated directly into the output arrays in list order. Like the body
// kernel it has a Go loop and two assembly bodies that agree bit for bit
// (batch.go); addField is the arithmetic, written once.

// cellKernel accumulates into (ax, ay, az, pot)[j] the multipole field of
// every listed cell at sink j.
func cellKernel(cells []*Multipole, sx, sy, sz []float64, eps2 float64, ax, ay, az, pot []float64) {
	if kernelLanes != 0 && eps2 >= rsqrtMin && len(cells) > 0 {
		cellKernelLanes(cells, sx, sy, sz, eps2, ax, ay, az, pot)
		return
	}
	cellKernelGo(cells, sx, sy, sz, eps2, ax, ay, az, pot)
}

// cellKernelGo is the portable body and the oracle of the assembly.
func cellKernelGo(cells []*Multipole, sx, sy, sz []float64, eps2 float64, ax, ay, az, pot []float64) {
	for j := range sx {
		a, b, c, p := ax[j], ay[j], az[j], pot[j]
		for _, m := range cells {
			a, b, c, p = m.addField(sx[j], sy[j], sz[j], eps2, a, b, c, p)
		}
		ax[j], ay[j], az[j], pot[j] = a, b, c, p
	}
}

// addField returns the running sums (ax, ay, az, pot) with the expansion's
// field at (px, py, pz) added:
//
//	phi(x) = -M/r - x^T Q x / (2 r^5)
//	a(x)   = -grad phi = -M x/r^3 + Qx/r^5 - (5/2) (x^T Q x) x / r^7
//
// with x the vector from the center of mass to the point. Every product
// that feeds a sum is fused into it, in the order cellLanesAVX2 and
// cellLanesAVX512 issue the same operations.
func (m *Multipole) addField(px, py, pz, eps2, ax, ay, az, pot float64) (float64, float64, float64, float64) {
	x := px - m.COM[0]
	y := py - m.COM[1]
	z := pz - m.COM[2]
	rinv := Rsqrt(math.FMA(z, z, math.FMA(y, y, math.FMA(x, x, eps2))))
	rinv2 := rinv * rinv
	rinv3 := rinv * rinv2
	rinv5 := rinv3 * rinv2
	rinv7 := rinv5 * rinv2
	pot = math.FMA(-m.M, rinv, pot)
	s := -m.M * rinv3
	q := &m.Q // xx, yy, zz, xy, xz, yz
	qx := math.FMA(q[4], z, math.FMA(q[3], y, q[0]*x))
	qy := math.FMA(q[5], z, math.FMA(q[1], y, q[3]*x))
	qz := math.FMA(q[2], z, math.FMA(q[5], y, q[4]*x))
	xqx := math.FMA(z, qz, math.FMA(y, qy, x*qx))
	su := math.FMA(-2.5*xqx, rinv7, s) // the two terms along x share one factor
	ax = math.FMA(rinv5, qx, math.FMA(su, x, ax))
	ay = math.FMA(rinv5, qy, math.FMA(su, y, ay))
	az = math.FMA(rinv5, qz, math.FMA(su, z, az))
	pot = math.FMA(-(0.5 * xqx), rinv5, pot)
	return ax, ay, az, pot
}
