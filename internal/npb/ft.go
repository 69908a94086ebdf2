package npb

import (
	"math"
	"math/cmplx"
	"math/rand"

	fftpkg "spacesim/internal/fft"
	"spacesim/internal/machine"
	"spacesim/internal/mp"
)

// fft delegates to the shared radix-2 implementation.
func fft(a []complex128, inverse bool) { fftpkg.Transform(a, inverse) }

// RunFT executes the 3-D FFT spectral benchmark: forward transform of a
// random complex field, per-iteration evolution by frequency-dependent
// phase factors, inverse transform, and checksum — with the NPB slab
// decomposition (local 2-D FFTs + a global transpose implemented as
// all-to-all). The miniature uses an actualGrid^3 field; costs are charged
// at class.N^3.
func RunFT(cluster machine.Cluster, procs int, class Class, actualGrid int) Result {
	res := Result{Benchmark: FT, Class: class.Name, Procs: procs}
	ntot := math.Pow(float64(class.N), 3)
	// NPB counts the FFT butterfly work: ~5 N log2 N per full 3-D
	// transform pair per iteration.
	opsPerIter := 5 * ntot * math.Log2(ntot)
	res.Ops = opsPerIter * float64(class.Iters)
	den := densities[FT]

	verified := true
	detail := ""
	st := mp.Run(cluster, procs, func(r *mp.Rank) {
		p := r.Size()
		g := actualGrid
		if g%p != 0 {
			panic("npb: FT actual grid must divide rank count")
		}
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
					fft(plane[y*g:(y+1)*g], inv)
				}
				for x := 0; x < g; x++ {
					for y := 0; y < g; y++ {
						row[y] = plane[y*g+x]
					}
					fft(row, inv)
					for y := 0; y < g; y++ {
						plane[y*g+x] = row[y]
					}
				}
			}
			r.Charge(acctFFTOps*2/3, den.eff, acctFFTOps*2/3*den.bytesPerPt)
			// transpose z<->x: send to rank owning each x-slab
			chunks := make([]any, p)
			sizes := make([]int64, p)
			for d := 0; d < p; d++ {
				// x range owned by d after transpose
				buf := make([]complex128, nz*g*nz*0+nz*g*(g/p))
				k := 0
				for z := 0; z < nz; z++ {
					for y := 0; y < g; y++ {
						for x := d * (g / p); x < (d+1)*(g/p); x++ {
							buf[k] = field[(z*g+y)*g+x]
							k++
						}
					}
				}
				chunks[d] = buf
				sizes[d] = acctChunk
			}
			recv := r.AlltoallAny(chunks, sizes)
			// reassemble: now x is local (width g/p), z spans the globe
			nx := g / p
			tr := make([]complex128, nx*g*g) // [x][y][zglobal]
			for src := 0; src < p; src++ {
				buf := recv[src].([]complex128)
				k := 0
				for zz := 0; zz < nz; zz++ {
					zg := src*nz + zz
					for y := 0; y < g; y++ {
						for x := 0; x < nx; x++ {
							tr[(x*g+y)*g+zg] = buf[k]
							k++
						}
					}
				}
			}
			// FFT along z (now contiguous)
			for x := 0; x < nx; x++ {
				for y := 0; y < g; y++ {
					fft(tr[(x*g+y)*g:(x*g+y)*g+g], inv)
				}
			}
			r.Charge(acctFFTOps/3, den.eff, acctFFTOps/3*den.bytesPerPt)
			// transpose back
			for d := 0; d < p; d++ {
				buf := make([]complex128, nx*g*nz)
				k := 0
				for zz := 0; zz < nz; zz++ {
					zg := d*nz + zz
					for y := 0; y < g; y++ {
						for x := 0; x < nx; x++ {
							buf[k] = tr[(x*g+y)*g+zg]
							k++
						}
					}
				}
				chunks[d] = buf
				sizes[d] = acctChunk
			}
			recv = r.AlltoallAny(chunks, sizes)
			for src := 0; src < p; src++ {
				buf := recv[src].([]complex128)
				k := 0
				for zz := 0; zz < nz; zz++ {
					for y := 0; y < g; y++ {
						for x := src * nx; x < (src+1)*nx; x++ {
							field[(zz*g+y)*g+x] = buf[k]
							k++
						}
					}
				}
			}
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
		if r.ID() == 0 {
			if tot > 1e-10 {
				verified = false
				detail = "fft roundtrip error " + fmtG(tot)
			} else {
				detail = "roundtrip error " + fmtG(tot)
			}
		}
	})
	res.Verified = verified
	res.VerifyDetail = detail
	finish(&res, st.ElapsedVirtual)
	return res
}
