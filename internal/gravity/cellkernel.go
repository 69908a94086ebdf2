package gravity

import "math"

// Batched cell kernel: the multipole (monopole + quadrupole) field of
// Multipole.AccelAt evaluated over a list of multipoles read where they
// lie — in the tree cell, the replicated slab or a MultipoleSoA's rows — so
// no Multipole value is copied and no method is called per (cell, sink)
// pair. Per sink the cells are accumulated directly into the output arrays
// in list order with the same operation sequence as the scalar
// `ax[j] += AccelAt(...)` loop, so results are bit-identical to the seed
// evaluation.

// cellKernelLibm accumulates into (ax, ay, az, pot)[j] the multipole field
// of every listed cell at sink j, using the math library square root (cells
// always use libm; the Karp exhibit applies to bodies only).
func cellKernelLibm(cells []*Multipole, sx, sy, sz []float64, eps2 float64, ax, ay, az, pot []float64) {
	if useAVX2 && len(cells) > 0 {
		cellKernelAVX2(cells, sx, sy, sz, eps2, ax, ay, az, pot)
		return
	}
	cellKernelLibmGo(cells, sx, sy, sz, eps2, ax, ay, az, pot)
}

// cellKernelLibmGo is the portable body and the oracle of cellLanesAVX2.
func cellKernelLibmGo(cells []*Multipole, sx, sy, sz []float64, eps2 float64, ax, ay, az, pot []float64) {
	for j := range sx {
		px, py, pz := sx[j], sy[j], sz[j]
		axj, ayj, azj, pj := ax[j], ay[j], az[j], pot[j]
		for _, m := range cells {
			x := px - m.COM[0]
			y := py - m.COM[1]
			z := pz - m.COM[2]
			r2 := x*x + y*y + z*z + eps2
			rinv := 1 / math.Sqrt(r2)
			rinv2 := rinv * rinv
			rinv3 := rinv * rinv2
			rinv5 := rinv3 * rinv2
			rinv7 := rinv5 * rinv2
			s := -m.M * rinv3
			a := s * x
			b := s * y
			c := s * z
			p := -m.M * rinv
			q := &m.Q // xx, yy, zz, xy, xz, yz
			qx := q[0]*x + q[3]*y + q[4]*z
			qy := q[3]*x + q[1]*y + q[5]*z
			qz := q[4]*x + q[5]*y + q[2]*z
			xqx := x*qx + y*qy + z*qz
			a += rinv5 * qx
			b += rinv5 * qy
			c += rinv5 * qz
			u := -2.5 * xqx * rinv7
			a += u * x
			b += u * y
			c += u * z
			p -= 0.5 * xqx * rinv5
			axj += a
			ayj += b
			azj += c
			pj += p
		}
		ax[j], ay[j], az[j], pot[j] = axj, ayj, azj, pj
	}
}
