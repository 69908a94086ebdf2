// Package seedref is the seed's force arithmetic, kept for tests only: one
// math.Sqrt and one divide per interaction and no fused multiply-add, the
// loops the production kernels ran until the Newton reciprocal square root
// replaced them. Evaluating today's interaction lists through it brings the
// seed's force digests back unedited (core.TestSeedDigestFromSortedLists,
// htree.TestSeedDigestFromLibmLoops), which shows that the re-pinned golden
// digests moved with the arithmetic and not with one list. The constants
// encode amd64 semantics: elsewhere the compiler may fuse these loops.
package seedref

import (
	"math"

	"spacesim/internal/gravity"
	"spacesim/internal/vec"
)

// Forces returns the acceleration and the potential of the list at every
// sink: cells first, then bodies, each in list order, a body at zero
// separation skipped; eps is the Plummer softening length.
func Forces(l *gravity.List, sinks []vec.V3, eps float64) ([]vec.V3, []float64) {
	eps2 := eps * eps
	acc := make([]vec.V3, len(sinks))
	pot := make([]float64, len(sinks))
	for j, sink := range sinks {
		px, py, pz := sink[0], sink[1], sink[2]
		var axj, ayj, azj, pj float64
		for _, m := range l.Cells {
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
		var fx, fy, fz, p float64
		for _, seg := range l.Segs {
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
		acc[j] = vec.V3{axj + fx, ayj + fy, azj + fz}
		pot[j] = pj + p
	}
	return acc, pot
}
