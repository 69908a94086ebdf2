package gravity

import "math"

// Batched cell kernel: the multipole (monopole + quadrupole) field of
// Multipole.AccelAt evaluated over a MultipoleSoA in blocked loops, so the
// cell half of an interaction list streams flat arrays exactly like the
// body half — no Multipole value is materialized and no method is called
// per (cell, sink) pair.
//
// Per sink the cells are accumulated directly into the output arrays in
// list order with the same operation sequence as the scalar
// `ax[j] += AccelAt(...)` loop, so results are bit-identical to the seed
// evaluation (cells are tiled, but a tile boundary only spills the running
// sum to memory and reloads it, which does not round). Sinks are processed
// in pairs to keep two sqrt/divide chains in flight per cell load.

// CellBatchLibm accumulates into (ax, ay, az, pot)[j] the multipole field
// of every listed cell at sink j, using the math library square root (cells
// always use libm; the Karp exhibit applies to bodies only).
func CellBatchLibm(cells *MultipoleSoA, sx, sy, sz []float64, eps2 float64, ax, ay, az, pot []float64) {
	nc := cells.Len()
	if nc == 0 {
		return
	}
	ns := len(sx)
	for t0 := 0; t0 < nc; t0 += cellTile {
		t1 := min(t0+cellTile, nc)
		cx := cells.CX[t0:t1]
		cy := cells.CY[t0:t1:t1]
		cz := cells.CZ[t0:t1:t1]
		cm := cells.M[t0:t1:t1]
		qxx := cells.QXX[t0:t1:t1]
		qyy := cells.QYY[t0:t1:t1]
		qzz := cells.QZZ[t0:t1:t1]
		qxy := cells.QXY[t0:t1:t1]
		qxz := cells.QXZ[t0:t1:t1]
		qyz := cells.QYZ[t0:t1:t1]
		j := 0
		for ; j+2 <= ns; j += 2 {
			px0, py0, pz0 := sx[j], sy[j], sz[j]
			px1, py1, pz1 := sx[j+1], sy[j+1], sz[j+1]
			ax0, ay0, az0, pp0 := ax[j], ay[j], az[j], pot[j]
			ax1, ay1, az1, pp1 := ax[j+1], ay[j+1], az[j+1], pot[j+1]
			for i := range cx {
				cxi, cyi, czi, mi := cx[i], cy[i], cz[i], cm[i]
				x0 := px0 - cxi
				y0 := py0 - cyi
				z0 := pz0 - czi
				r20 := x0*x0 + y0*y0 + z0*z0 + eps2
				x1 := px1 - cxi
				y1 := py1 - cyi
				z1 := pz1 - czi
				r21 := x1*x1 + y1*y1 + z1*z1 + eps2
				rinv0 := 1 / math.Sqrt(r20)
				rinv1 := 1 / math.Sqrt(r21)

				rinv20 := rinv0 * rinv0
				rinv30 := rinv0 * rinv20
				rinv50 := rinv30 * rinv20
				rinv70 := rinv50 * rinv20
				s0 := -mi * rinv30
				a0 := s0 * x0
				b0 := s0 * y0
				c0 := s0 * z0
				p0 := -mi * rinv0
				qx0 := qxx[i]*x0 + qxy[i]*y0 + qxz[i]*z0
				qy0 := qxy[i]*x0 + qyy[i]*y0 + qyz[i]*z0
				qz0 := qxz[i]*x0 + qyz[i]*y0 + qzz[i]*z0
				xqx0 := x0*qx0 + y0*qy0 + z0*qz0
				a0 += rinv50 * qx0
				b0 += rinv50 * qy0
				c0 += rinv50 * qz0
				u0 := -2.5 * xqx0 * rinv70
				a0 += u0 * x0
				b0 += u0 * y0
				c0 += u0 * z0
				p0 -= 0.5 * xqx0 * rinv50
				ax0 += a0
				ay0 += b0
				az0 += c0
				pp0 += p0

				rinv21 := rinv1 * rinv1
				rinv31 := rinv1 * rinv21
				rinv51 := rinv31 * rinv21
				rinv71 := rinv51 * rinv21
				s1 := -mi * rinv31
				a1 := s1 * x1
				b1 := s1 * y1
				c1 := s1 * z1
				p1 := -mi * rinv1
				qx1 := qxx[i]*x1 + qxy[i]*y1 + qxz[i]*z1
				qy1 := qxy[i]*x1 + qyy[i]*y1 + qyz[i]*z1
				qz1 := qxz[i]*x1 + qyz[i]*y1 + qzz[i]*z1
				xqx1 := x1*qx1 + y1*qy1 + z1*qz1
				a1 += rinv51 * qx1
				b1 += rinv51 * qy1
				c1 += rinv51 * qz1
				u1 := -2.5 * xqx1 * rinv71
				a1 += u1 * x1
				b1 += u1 * y1
				c1 += u1 * z1
				p1 -= 0.5 * xqx1 * rinv51
				ax1 += a1
				ay1 += b1
				az1 += c1
				pp1 += p1
			}
			ax[j], ay[j], az[j], pot[j] = ax0, ay0, az0, pp0
			ax[j+1], ay[j+1], az[j+1], pot[j+1] = ax1, ay1, az1, pp1
		}
		if j < ns {
			px0, py0, pz0 := sx[j], sy[j], sz[j]
			ax0, ay0, az0, pp0 := ax[j], ay[j], az[j], pot[j]
			for i := range cx {
				cxi, cyi, czi, mi := cx[i], cy[i], cz[i], cm[i]
				x0 := px0 - cxi
				y0 := py0 - cyi
				z0 := pz0 - czi
				r20 := x0*x0 + y0*y0 + z0*z0 + eps2
				rinv0 := 1 / math.Sqrt(r20)
				rinv20 := rinv0 * rinv0
				rinv30 := rinv0 * rinv20
				rinv50 := rinv30 * rinv20
				rinv70 := rinv50 * rinv20
				s0 := -mi * rinv30
				a0 := s0 * x0
				b0 := s0 * y0
				c0 := s0 * z0
				p0 := -mi * rinv0
				qx0 := qxx[i]*x0 + qxy[i]*y0 + qxz[i]*z0
				qy0 := qxy[i]*x0 + qyy[i]*y0 + qyz[i]*z0
				qz0 := qxz[i]*x0 + qyz[i]*y0 + qzz[i]*z0
				xqx0 := x0*qx0 + y0*qy0 + z0*qz0
				a0 += rinv50 * qx0
				b0 += rinv50 * qy0
				c0 += rinv50 * qz0
				u0 := -2.5 * xqx0 * rinv70
				a0 += u0 * x0
				b0 += u0 * y0
				c0 += u0 * z0
				p0 -= 0.5 * xqx0 * rinv50
				ax0 += a0
				ay0 += b0
				az0 += c0
				pp0 += p0
			}
			ax[j], ay[j], az[j], pot[j] = ax0, ay0, az0, pp0
		}
	}
}
