package gravity

import "math"

// Batched cell kernel: the multipole (monopole + quadrupole) field of
// Multipole.AccelAt evaluated over a MultipoleSoA, so the cell half of an
// interaction list streams flat arrays exactly like the body half — no
// Multipole value is materialized and no method is called per (cell, sink)
// pair. Per sink the cells are accumulated directly into the output arrays
// in list order with the same operation sequence as the scalar
// `ax[j] += AccelAt(...)` loop, so results are bit-identical to the seed
// evaluation.

// CellBatchLibm accumulates into (ax, ay, az, pot)[j] the multipole field
// of every listed cell at sink j, using the math library square root (cells
// always use libm; the Karp exhibit applies to bodies only).
func CellBatchLibm(cells *MultipoleSoA, sx, sy, sz []float64, eps2 float64, ax, ay, az, pot []float64) {
	if useAVX2 && cells.Len() > 0 {
		cellBatchAVX2(cells, sx, sy, sz, eps2, ax, ay, az, pot)
		return
	}
	cellBatchLibmGo(cells, sx, sy, sz, eps2, ax, ay, az, pot)
}

// cellBatchLibmGo is the portable body and the oracle of cellLanesAVX2.
func cellBatchLibmGo(cells *MultipoleSoA, sx, sy, sz []float64, eps2 float64, ax, ay, az, pot []float64) {
	n := cells.Len()
	cx, cy, cz, cm := cells.CX[:n], cells.CY[:n], cells.CZ[:n], cells.M[:n]
	qxx, qyy, qzz := cells.QXX[:n], cells.QYY[:n], cells.QZZ[:n]
	qxy, qxz, qyz := cells.QXY[:n], cells.QXZ[:n], cells.QYZ[:n]
	for j := range sx {
		px, py, pz := sx[j], sy[j], sz[j]
		axj, ayj, azj, pj := ax[j], ay[j], az[j], pot[j]
		for i := 0; i < n; i++ {
			x := px - cx[i]
			y := py - cy[i]
			z := pz - cz[i]
			r2 := x*x + y*y + z*z + eps2
			rinv := 1 / math.Sqrt(r2)
			rinv2 := rinv * rinv
			rinv3 := rinv * rinv2
			rinv5 := rinv3 * rinv2
			rinv7 := rinv5 * rinv2
			s := -cm[i] * rinv3
			a := s * x
			b := s * y
			c := s * z
			p := -cm[i] * rinv
			qx := qxx[i]*x + qxy[i]*y + qxz[i]*z
			qy := qxy[i]*x + qyy[i]*y + qyz[i]*z
			qz := qxz[i]*x + qyz[i]*y + qzz[i]*z
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
