package npb

import (
	"math"
	"math/rand"

	"spacesim/internal/machine"
	"spacesim/internal/mp"
)

// runMG executes the multigrid benchmark: V-cycles on a 3-D Poisson
// problem, z-slab distributed with halo exchanges at every level (the NPB
// MG pattern: comm at all grid levels, coarse levels gathered). The
// miniature runs on g^3 (Run picks a power of two with at least two
// planes per rank); costs are charged at class.N^3. Verification: the
// residual norm must fall by at least 3x per V-cycle.
func runMG(res Result, cluster machine.Cluster, class Class, g int) Result {
	ntot := math.Pow(float64(class.N), 3)
	den := densities[MG]
	// Work per V-cycle ~ (1 + 1/8 + 1/64 + ...) * level-0 work.
	opsPerCycle := den.flopsPerPt * ntot * 8.0 / 7.0
	res.Ops = opsPerCycle * float64(class.Iters)

	return run(res, cluster, func(r *mp.Rank) (bool, string) {
		p := r.Size()
		nz := g / p
		rng := rand.New(rand.NewSource(int64(r.ID())*13 + 7))
		b := make([]float64, g*g*nz)
		for i := range b {
			b[i] = rng.Float64() - 0.5
		}
		u := make([]float64, len(b))

		iters := min(class.Iters, 4)
		scale := float64(class.Iters) / float64(iters)
		acctPlane := int64(8 * float64(class.N*class.N) * scale)
		acctPtsPerRank := ntot * 8.0 / 7.0 / float64(p) * scale

		prev := mgResidualNorm(r, g, u, b, acctPlane)
		factors := make([]float64, 0, iters)
		for it := 0; it < iters; it++ {
			mgVCycle(r, g, nz, u, b, acctPlane)
			r.Charge(acctPtsPerRank*den.flopsPerPt, den.eff, acctPtsPerRank*den.bytesPerPt)
			cur := mgResidualNorm(r, g, u, b, acctPlane)
			factors = append(factors, prev/cur)
			prev = cur
		}
		// the norms are allreduced: every rank checks the same factors
		ok, detail := true, "per-cycle reduction "+fmtG(factors[0])
		for _, f := range factors {
			if f < 3 {
				ok, detail = false, "V-cycle reduction only "+fmtG(f)
			}
		}
		return ok, detail
	})
}

// mgVCycle performs one V-cycle on the slab-distributed grid (g global
// edge, nz local planes). Levels coarsen while each rank keeps >= 2 planes
// and the grid stays >= 4; below that the problem is gathered to rank 0
// and relaxed to convergence there.
func mgVCycle(r *mp.Rank, g, nz int, u, b []float64, acctPlane int64) {
	const pre, post = 3, 3
	// nz = g/P with both powers of two, so nz >= 2 halves on every rank
	if nz >= 2 && g >= 8 {
		for s := 0; s < pre; s++ {
			mgSmooth(exchanged(r, g, u, acctPlane), b)
		}
		rres := mgResidual(r, g, u, b, acctPlane)
		// restrict by 2x2x2 cell averaging (slab-aligned: fine planes 2z and
		// 2z+1 are both local because nz is even)
		cg, cnz := g/2, nz/2
		cb := make([]float64, cg*cg*cnz)
		for z := 0; z < cnz; z++ {
			for y := 0; y < cg; y++ {
				for x := 0; x < cg; x++ {
					s := 0.0
					for dz := 0; dz < 2; dz++ {
						for dy := 0; dy < 2; dy++ {
							for dx := 0; dx < 2; dx++ {
								s += rres[((2*z+dz)*g+2*y+dy)*g+2*x+dx]
							}
						}
					}
					cb[(z*cg+y)*cg+x] = 4 * s / 8
				}
			}
		}
		cu := make([]float64, len(cb))
		// W-cycle: visiting the coarse level twice keeps the convergence
		// factor flat as the level count grows (the cell-centered transfer
		// operators are low-order, so a single V-visit degrades).
		mgVCycle(r, cg, cnz, cu, cb, acctPlane/4)
		mgVCycle(r, cg, cnz, cu, cb, acctPlane/4)
		// prolong with cell-centered trilinear interpolation; z interpolation
		// at slab edges needs the coarse halo planes of both neighbors
		coarse := exchanged(r, cg, cu, acctPlane/4)
		for z := 0; z < nz; z++ {
			cz0, wz := interpWeight(z)
			for y := 0; y < g; y++ {
				cy0, wy := interpWeight(y)
				for x := 0; x < g; x++ {
					cx0, wx := interpWeight(x)
					v := 0.0
					for dz := 0; dz < 2; dz++ {
						for dy := 0; dy < 2; dy++ {
							for dx := 0; dx < 2; dx++ {
								w := pick(wx, dx) * pick(wy, dy) * pick(wz, dz)
								v += w * planeAt(coarse.plane(cz0+dz), cg, cx0+dx, cy0+dy)
							}
						}
					}
					u[(z*g+y)*g+x] += v
				}
			}
		}
		for s := 0; s < post; s++ {
			mgSmooth(exchanged(r, g, u, acctPlane), b)
		}
		return
	}
	// Coarse solve: gather the whole level onto rank 0, relax, scatter.
	parts := r.Gather(0, u)
	bparts := r.Gather(0, b)
	if r.ID() == 0 {
		var full, fullB []float64
		for i := range parts {
			full = append(full, parts[i]...)
			fullB = append(fullB, bparts[i]...)
		}
		// the whole grid is local now: its halos are the domain boundary
		for s := 0; s < 60; s++ {
			mgSmooth(field{g: g, v: full}, fullB)
		}
		for d := 0; d < r.Size(); d++ {
			r.SendFloats(d, 91, full[d*len(u):(d+1)*len(u)])
		}
	}
	part, _ := r.RecvFloats(0, 91)
	copy(u, part)
}

// interpWeight maps a fine index to the lower of its two interpolating
// coarse cells and the weight on it (cell-centered geometry: even fine
// cells sit 1/4 above the coarse center below them).
func interpWeight(x int) (c0 int, wLow float64) {
	if x%2 == 0 {
		return x/2 - 1, 0.25
	}
	return x / 2, 0.75
}

// pick selects the low (dx=0) or high (dx=1) interpolation weight.
func pick(wLow float64, dx int) float64 {
	if dx == 0 {
		return wLow
	}
	return 1 - wLow
}

// mgSmooth applies one damped-Jacobi sweep to the slab u = f.v, whose
// halos f carries.
func mgSmooth(f field, b []float64) {
	au := f.laplacian()
	const omega = 2.0 / 3.0
	for i := range f.v {
		f.v[i] += omega / 6.0 * (b[i] - au[i])
	}
}

// mgResidual returns b - A u on the slab.
func mgResidual(r *mp.Rank, g int, u, b []float64, acctPlane int64) []float64 {
	au := exchanged(r, g, u, acctPlane).laplacian()
	out := make([]float64, len(u))
	for i := range out {
		out[i] = b[i] - au[i]
	}
	return out
}

// mgResidualNorm returns the global L2 norm of the residual.
func mgResidualNorm(r *mp.Rank, g int, u, b []float64, acctPlane int64) float64 {
	res := mgResidual(r, g, u, b, acctPlane)
	s := 0.0
	for _, v := range res {
		s += v * v
	}
	return math.Sqrt(r.AllreduceScalar(s, mp.OpSum))
}
