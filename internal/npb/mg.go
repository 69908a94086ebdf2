package npb

import (
	"math"
	"math/rand"

	"spacesim/internal/machine"
	"spacesim/internal/mp"
)

// RunMG executes the multigrid benchmark: V-cycles on a 3-D Poisson
// problem, z-slab distributed with halo exchanges at every level (the NPB
// MG pattern: comm at all grid levels, coarse levels gathered). The
// miniature runs on actualGrid^3 (power of two, divisible by the rank
// count); costs are charged at class.N^3. Verification: the residual norm
// must fall by at least 3x per V-cycle.
func RunMG(cluster machine.Cluster, procs int, class Class, actualGrid int) Result {
	res := Result{Benchmark: MG, Class: class.Name, Procs: procs}
	ntot := math.Pow(float64(class.N), 3)
	den := densities[MG]
	// Work per V-cycle ~ (1 + 1/8 + 1/64 + ...) * level-0 work.
	opsPerCycle := den.flopsPerPt * ntot * 8.0 / 7.0
	res.Ops = opsPerCycle * float64(class.Iters)

	verified := true
	detail := ""
	st := mp.Run(cluster, procs, func(r *mp.Rank) {
		p := r.Size()
		g := actualGrid
		if g&(g-1) != 0 || p&(p-1) != 0 || g%p != 0 || g/p < 2 {
			panic("npb: MG needs power-of-two grid divisible by power-of-two ranks")
		}
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

		res0 := mgResidualNorm(r, g, nz, u, b, acctPlane)
		prev := res0
		factors := make([]float64, 0, iters)
		for it := 0; it < iters; it++ {
			mgVCycle(r, g, nz, u, b, acctPlane)
			r.Charge(acctPtsPerRank*den.flopsPerPt, den.eff, acctPtsPerRank*den.bytesPerPt)
			cur := mgResidualNorm(r, g, nz, u, b, acctPlane)
			factors = append(factors, prev/cur)
			prev = cur
		}
		if r.ID() == 0 {
			for _, f := range factors {
				if f < 3 {
					verified = false
					detail = "V-cycle reduction only " + fmtG(f)
				}
			}
			if detail == "" {
				detail = "per-cycle reduction " + fmtG(factors[0])
			}
		}
	})
	res.Verified = verified
	res.VerifyDetail = detail
	finish(&res, st.ElapsedVirtual)
	return res
}

// mgVCycle performs one V-cycle on the slab-distributed grid (g global
// edge, nz local planes). Levels coarsen while each rank keeps >= 2 planes
// and the grid stays >= 4; below that the problem is gathered to rank 0
// and relaxed to convergence there.
func mgVCycle(r *mp.Rank, g, nz int, u, b []float64, acctPlane int64) {
	const pre, post = 3, 3
	if g >= 4 && nz >= 2 && (g/2)/max(1, r.Size()) >= 1 && nz%2 == 0 && g/2 >= 4 && (nz/2) >= 1 && (nz/2)*r.Size() == g/2 {
		for s := 0; s < pre; s++ {
			mgSmooth(r, g, nz, u, b, acctPlane)
		}
		rres := mgResidual(r, g, nz, u, b, acctPlane)
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
		up, down := exchangeHalos(r, cu[:cg*cg], cu[len(cu)-cg*cg:], acctPlane/4)
		cAt := func(cx, cy, cz int) float64 {
			// Dirichlet ghosts: zero outside the global domain; slab edges
			// in z use the neighbor's halo plane.
			if cx < 0 || cx >= cg || cy < 0 || cy >= cg {
				return 0
			}
			if cz < 0 {
				if down != nil {
					return down[cy*cg+cx]
				}
				return 0
			}
			if cz >= cnz {
				if up != nil {
					return up[cy*cg+cx]
				}
				return 0
			}
			return cu[(cz*cg+cy)*cg+cx]
		}
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
								v += w * cAt(cx0+dx, cy0+dy, cz0+dz)
							}
						}
					}
					u[(z*g+y)*g+x] += v
				}
			}
		}
		for s := 0; s < post; s++ {
			mgSmooth(r, g, nz, u, b, acctPlane)
		}
		return
	}
	// Coarse solve: gather the whole level onto rank 0, relax, scatter.
	parts := r.Gather(0, u)
	bparts := r.Gather(0, b)
	var full, fullB []float64
	if r.ID() == 0 {
		for i := range parts {
			full = append(full, parts[i]...)
			fullB = append(fullB, bparts[i]...)
		}
		fnz := g // whole grid local now
		for s := 0; s < 60; s++ {
			serialSmooth(g, fnz, full, fullB)
		}
	}
	// scatter back
	if r.ID() == 0 {
		off := 0
		for d := 0; d < r.Size(); d++ {
			n := len(u)
			r.SendFloats(d, 91, full[off:off+n])
			off += n
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

// mgSmooth applies one damped-Jacobi sweep with halo exchange.
func mgSmooth(r *mp.Rank, g, nz int, u, b []float64, acctPlane int64) {
	res := mgResidual(r, g, nz, u, b, acctPlane)
	const omega = 2.0 / 3.0
	for i := range u {
		u[i] += omega / 6.0 * res[i]
	}
}

// serialSmooth is mgSmooth without communication (whole grid local).
func serialSmooth(g, nz int, u, b []float64) {
	f := &field{g: g, nz: nz, v: u}
	au := f.applyLaplacianSerial(u)
	const omega = 2.0 / 3.0
	for i := range u {
		u[i] += omega / 6.0 * (b[i] - au[i])
	}
}

// mgResidual returns b - A u on the slab.
func mgResidual(r *mp.Rank, g, nz int, u, b []float64, acctPlane int64) []float64 {
	f := &field{g: g, nz: nz, v: u}
	au := f.applyLaplacian(r, u, acctPlane)
	out := make([]float64, len(u))
	for i := range out {
		out[i] = b[i] - au[i]
	}
	return out
}

// mgResidualNorm returns the global L2 norm of the residual.
func mgResidualNorm(r *mp.Rank, g, nz int, u, b []float64, acctPlane int64) float64 {
	res := mgResidual(r, g, nz, u, b, acctPlane)
	s := 0.0
	for _, v := range res {
		s += v * v
	}
	return math.Sqrt(r.AllreduceScalar(s, mp.OpSum))
}

// applyLaplacianSerial is applyLaplacian for a fully local grid.
func (f *field) applyLaplacianSerial(p []float64) []float64 {
	g, nz := f.g, f.nz
	out := make([]float64, len(p))
	at := func(x, y, z int) float64 {
		if x < 0 || x >= g || y < 0 || y >= g || z < 0 || z >= nz {
			return 0
		}
		return p[(z*g+y)*g+x]
	}
	for z := 0; z < nz; z++ {
		for y := 0; y < g; y++ {
			for x := 0; x < g; x++ {
				i := (z*g+y)*g + x
				out[i] = 6*p[i] - at(x-1, y, z) - at(x+1, y, z) -
					at(x, y-1, z) - at(x, y+1, z) - at(x, y, z-1) - at(x, y, z+1)
			}
		}
	}
	return out
}
