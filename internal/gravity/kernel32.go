package gravity

import "math"

// Single-precision renderings of the Go loops of the batched libm kernels,
// used by the Evaluator's Float32 mode: one interaction list is converted
// to float32 scratch once per bucket, evaluated and accumulated in float32,
// and the bucket totals are folded back into the float64 outputs. The RMS
// error of this mode against the float64 engine is pinned by the package
// tests and measured by `ssbench kernels`. There is no assembly body: since
// the float64 kernels moved to AVX2 this mode is the slower one
// (EXPERIMENTS.md, Table 5).

func kernelBatchLibm32(sx, sy, sz, xs, ys, zs, ms []float32, eps2 float32, ax, ay, az, pot []float32) {
	for j := range sx {
		px, py, pz := sx[j], sy[j], sz[j]
		fx, fy, fz, fp := ax[j], ay[j], az[j], pot[j]
		for i := range xs {
			dx := xs[i] - px
			dy := ys[i] - py
			dz := zs[i] - pz
			r2 := dx*dx + dy*dy + dz*dz
			if r2 == 0 {
				continue
			}
			rinv := 1 / float32(math.Sqrt(float64(r2+eps2)))
			rinv3 := rinv * rinv * rinv
			mr3 := ms[i] * rinv3
			fx += mr3 * dx
			fy += mr3 * dy
			fz += mr3 * dz
			fp -= ms[i] * rinv
		}
		ax[j], ay[j], az[j], pot[j] = fx, fy, fz, fp
	}
}

// cellBatch32 evaluates the multipole field over the float32 cell scratch.
func cellBatch32(s *evalScratch32, sx, sy, sz []float32, eps2 float32, ax, ay, az, pot []float32) {
	cx, cy, cz, cm := s.cx, s.cy, s.cz, s.cm
	qxx, qyy, qzz, qxy, qxz, qyz := s.qxx, s.qyy, s.qzz, s.qxy, s.qxz, s.qyz
	for j := range sx {
		px, py, pz := sx[j], sy[j], sz[j]
		ax0, ay0, az0, pp0 := ax[j], ay[j], az[j], pot[j]
		for i := range cx {
			mi := cm[i]
			x := px - cx[i]
			y := py - cy[i]
			z := pz - cz[i]
			r2 := x*x + y*y + z*z + eps2
			rinv := 1 / float32(math.Sqrt(float64(r2)))
			rinv2 := rinv * rinv
			rinv3 := rinv * rinv2
			rinv5 := rinv3 * rinv2
			rinv7 := rinv5 * rinv2
			sc := -mi * rinv3
			a := sc * x
			b := sc * y
			c := sc * z
			p := -mi * rinv
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
			ax0 += a
			ay0 += b
			az0 += c
			pp0 += p
		}
		ax[j], ay[j], az[j], pot[j] = ax0, ay0, az0, pp0
	}
}
