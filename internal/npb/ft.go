package npb

import (
	"math"
	"math/cmplx"
	"math/rand"

	fftpkg "spacesim/internal/fft"
	"spacesim/internal/machine"
	"spacesim/internal/mp"
)

// runFT executes the 3-D FFT spectral benchmark: forward transform of a
// random complex field, per-iteration evolution by frequency-dependent
// phase factors, inverse transform, and checksum — with the NPB slab
// decomposition (local 2-D FFTs + a global transpose implemented as
// all-to-all). The miniature uses a g^3 field; costs are charged
// at class.N^3.
func runFT(res Result, cluster machine.Cluster, class Class, g int) Result {
	ntot := math.Pow(float64(class.N), 3)
	// NPB counts the FFT butterfly work: ~5 N log2 N per full 3-D
	// transform pair per iteration.
	opsPerIter := 5 * ntot * math.Log2(ntot)
	res.Ops = opsPerIter * float64(class.Iters)
	den := densities[FT]

	return run(res, cluster, func(r *mp.Rank) (bool, string) {
		p := r.Size()
		nz := g / p
		rng := rand.New(rand.NewSource(int64(r.ID())*31 + 3))
		// u[z][y][x], z local slab
		field := make([]complex128, nz*g*g)
		orig := make([]complex128, len(field))
		for i := range field {
			field[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
			orig[i] = field[i]
		}

		iters := min(class.Iters, 2)
		scale := float64(class.Iters) / float64(iters)
		acctPerRank := ntot / float64(p) * scale
		acctChunk := int64(16 * acctPerRank / float64(p))
		acctFFTOps := opsPerIter / 2 / float64(p) * scale // per forward or inverse

		// transform performs the distributed 3-D FFT in place.
		transform := func(inv bool) {
			// 2-D FFTs in x and y on local z-planes
			row := make([]complex128, g)
			for z := 0; z < nz; z++ {
				plane := field[z*g*g : (z+1)*g*g]
				for y := 0; y < g; y++ {
					fftpkg.Transform(plane[y*g:(y+1)*g], inv)
				}
				for x := 0; x < g; x++ {
					for y := 0; y < g; y++ {
						row[y] = plane[y*g+x]
					}
					fftpkg.Transform(row, inv)
					for y := 0; y < g; y++ {
						plane[y*g+x] = row[y]
					}
				}
			}
			r.Charge(acctFFTOps*2/3, den.eff, acctFFTOps*2/3*den.bytesPerPt)
			// transpose z<->x so z becomes local: tr is [x][y][zglobal]
			tr := transpose(r, field, g, acctChunk, true)
			// FFT along z (now contiguous; the pencils are nz wide)
			for x := 0; x < nz; x++ {
				for y := 0; y < g; y++ {
					fftpkg.Transform(tr[(x*g+y)*g:(x*g+y)*g+g], inv)
				}
			}
			r.Charge(acctFFTOps/3, den.eff, acctFFTOps/3*den.bytesPerPt)
			copy(field, transpose(r, tr, g, acctChunk, false))
		}

		for it := 0; it < iters; it++ {
			transform(false)
			// evolve: frequency-dependent damping (stand-in for the NPB
			// exponential evolution operator)
			for i := range field {
				field[i] *= complex(0.99, 0)
			}
			transform(true)
		}
		// verification: after undoing the scalar evolution, the field must
		// equal the original to near machine precision
		undo := complex(math.Pow(0.99, float64(iters)), 0)
		maxErr := 0.0
		for i := range field {
			d := cmplx.Abs(field[i]/undo - orig[i])
			if d > maxErr {
				maxErr = d
			}
		}
		tot := r.AllreduceScalar(maxErr, mp.OpMax)
		if tot > 1e-10 {
			return false, "fft roundtrip error " + fmtG(tot)
		}
		return true, "roundtrip error " + fmtG(tot)
	})
}
