package npb

import (
	"math"
	"math/rand"

	"spacesim/internal/machine"
	"spacesim/internal/mp"
)

// runLU executes the LU pseudo-application analogue: SSOR sweeps on a 3-D
// Poisson problem with the NPB LU wavefront pattern. The domain is
// decomposed into x-pencils (each rank owns an x-range, full y and z); the
// lower sweep ascends z plane by plane, each rank forwarding its boundary
// strip to the next rank as soon as a plane is done — so the wavefront
// pipelines with plane granularity, which is what makes NPB LU scale (and
// makes it latency-sensitive: many small boundary messages). The upper
// sweep descends symmetrically. LU's modest per-point memory traffic
// (wavefront data reuse) is why it is the least memory-bound NPB code in
// Table 2 and shows the L2 cache effect of Figure 5.
//
// Verification: the SSOR residual of the Poisson system must decrease
// monotonically and substantially.
func runLU(res Result, cluster machine.Cluster, class Class, g int) Result {
	ntot := math.Pow(float64(class.N), 3)
	den := densities[LU]
	// The Figure 5 cache effect: when a rank's working set approaches the
	// P4's cache, LU's wavefront reuse turns main-memory traffic into cache
	// hits ("the problem being divided into enough pieces that it fits into
	// L2 cache"), so the per-point memory traffic shrinks.
	wsBytes := 8 * 5 * ntot / float64(res.Procs)
	const cacheKnee = 4 << 20
	cacheFactor := wsBytes / cacheKnee
	if cacheFactor > 1 {
		cacheFactor = 1
	}
	if cacheFactor < 0.25 {
		cacheFactor = 0.25
	}
	den.bytesPerPt *= cacheFactor
	res.Ops = den.flopsPerPt * ntot * float64(class.Iters)

	return run(res, cluster, func(r *mp.Rank) (bool, string) {
		p := r.Size()
		nx := g / p
		rng := rand.New(rand.NewSource(int64(r.ID())*41 + 11))
		// layout: [(z*g + y)*nx + lx], full z and y, local x range
		b := make([]float64, g*g*nx)
		for i := range b {
			b[i] = rng.Float64() - 0.5
		}
		u := make([]float64, len(b))

		iters := min(class.Iters, 4)
		scale := float64(class.Iters) / float64(iters)
		cn := float64(class.N)
		// Boundary accounting uses the 2-D pencil decomposition of NPB LU:
		// per-rank boundary per sweep ~ 5 vars * 2 * classN^2/sqrt(P)
		// doubles, spread over the classN plane-pipelined strips. The
		// old-value side planes are part of the same wavefront exchange, so
		// they carry one strip's worth.
		// 0.3: the fraction of strip transfer not overlapped with the next
		// plane's compute (NPB LU hides most of it).
		boundaryPerSweep := 0.3 * 8 * 5 * 2 * cn * cn / math.Sqrt(float64(p)) * scale
		stripBytes := int64(boundaryPerSweep / float64(g))
		sideBytes := stripBytes
		acctPtsPerRank := ntot / float64(p) * scale
		// Charge compute per plane so the wavefront pipelines in virtual
		// time exactly as the real code does.
		chargePlane := func() {
			r.Charge(acctPtsPerRank*den.flopsPerPt/float64(2*g), den.eff,
				acctPtsPerRank*den.bytesPerPt/float64(2*g))
		}

		const omega = 1.2
		norm0 := luResidualNorm(r, exchangeSides(r, u, g, nx, sideBytes), b)
		prev, increased := norm0, false
		for it := 0; it < iters; it++ {
			// each sweep reads the x-neighbors' old-value side planes
			luSweep(r, exchangeSides(r, u, g, nx, sideBytes), b, true, omega, stripBytes, chargePlane)
			luSweep(r, exchangeSides(r, u, g, nx, sideBytes), b, false, omega, stripBytes, chargePlane)
			cur := luResidualNorm(r, exchangeSides(r, u, g, nx, sideBytes), b)
			if cur > prev*(1+1e-12) {
				increased = true
			}
			prev = cur
		}
		// the norms are allreduced: every rank checks the same residuals
		switch {
		case prev > 0.7*norm0:
			return false, "SSOR reduction too weak: " + fmtG(prev/norm0)
		case increased:
			return false, "SSOR residual increased"
		}
		return true, ""
	})
}

// pencil is a rank's x-pencil of a g^3 grid, u[(z*g+y)*nx+lx] over its nx
// x planes, with the facing side planes ([z*g+y]) of its x-neighbors; a nil
// side is the Dirichlet-0 boundary.
type pencil struct {
	g, nx          int
	u, left, right []float64
}

// at reads the pencil at local x plane lx, across its sides, and zero
// outside the global domain.
func (pc *pencil) at(lx, y, z int) float64 {
	g := pc.g
	switch {
	case lx < 0:
		return planeAt(pc.left, g, y, z)
	case lx >= pc.nx:
		return planeAt(pc.right, g, y, z)
	case uint(y) >= uint(g) || uint(z) >= uint(g):
		return 0
	}
	return pc.u[(z*g+y)*pc.nx+lx]
}

// luSweep performs one SOR pass over the pencil pc in ascending
// (lower=true) or descending order with plane-pipelined boundary strips
// between x-neighbor ranks; pc's sides are the neighbors' old planes.
func luSweep(r *mp.Rank, pc pencil, b []float64, lower bool, omega float64, stripBytes int64, chargePlane func()) {
	p := r.Size()
	me := r.ID()
	g, nx, u := pc.g, pc.nx, pc.u
	const tag = 95
	// fresh holds the upstream neighbor's just-computed boundary strip for
	// the current plane; it overrides the old side plane.
	fresh := make([]float64, g)
	update := func(lx, y, z int, upstream []float64) {
		i := (z*g+y)*nx + lx
		low := pc.at(lx-1, y, z)  // old side plane when lx == 0
		high := pc.at(lx+1, y, z) // old side plane when lx == nx-1
		if lower && lx == 0 && upstream != nil {
			low = upstream[y] // fresh strip from the left, same plane
		}
		if !lower && lx == nx-1 && upstream != nil {
			high = upstream[y] // fresh strip from the right, same plane
		}
		sum := low + high + pc.at(lx, y-1, z) + pc.at(lx, y+1, z) + pc.at(lx, y, z-1) + pc.at(lx, y, z+1)
		gs := (b[i] + sum) / 6.0
		u[i] += omega * (gs - u[i])
	}
	zs := make([]int, g)
	for i := range zs {
		if lower {
			zs[i] = i
		} else {
			zs[i] = g - 1 - i
		}
	}
	for _, z := range zs {
		var upstream []float64
		if lower && me > 0 {
			d, _ := r.Recv(me-1, tag)
			upstream = d.([]float64)
		} else if !lower && me < p-1 {
			d, _ := r.Recv(me+1, tag)
			upstream = d.([]float64)
		}
		if lower {
			for y := 0; y < g; y++ {
				for lx := 0; lx < nx; lx++ {
					update(lx, y, z, upstream)
				}
			}
		} else {
			for y := g - 1; y >= 0; y-- {
				for lx := nx - 1; lx >= 0; lx-- {
					update(lx, y, z, upstream)
				}
			}
		}
		chargePlane()
		// forward my boundary strip for this plane
		if lower && me < p-1 {
			for y := 0; y < g; y++ {
				fresh[y] = u[(z*g+y)*nx+nx-1]
			}
			r.Send(me+1, tag, append([]float64(nil), fresh...), stripBytes)
		} else if !lower && me > 0 {
			for y := 0; y < g; y++ {
				fresh[y] = u[(z*g+y)*nx]
			}
			r.Send(me-1, tag, append([]float64(nil), fresh...), stripBytes)
		}
	}
}

// exchangeSides returns u's pencil with the side planes (x boundaries)
// of its x-neighbor ranks: the left neighbor's rightmost plane and the
// right neighbor's leftmost (nil at domain edges).
func exchangeSides(r *mp.Rank, u []float64, g, nx int, acctBytes int64) pencil {
	myLeft := make([]float64, g*g)
	myRight := make([]float64, g*g)
	for z := 0; z < g; z++ {
		for y := 0; y < g; y++ {
			myLeft[z*g+y] = u[(z*g+y)*nx]
			myRight[z*g+y] = u[(z*g+y)*nx+nx-1]
		}
	}
	right, left := exchangeHalos(r, myLeft, myRight, acctBytes)
	return pencil{g: g, nx: nx, u: u, left: left, right: right}
}

// luResidualNorm computes the global L2 residual of the Poisson system on
// the pencil.
func luResidualNorm(r *mp.Rank, pc pencil, b []float64) float64 {
	g, nx, u := pc.g, pc.nx, pc.u
	s := 0.0
	for z := 0; z < g; z++ {
		for y := 0; y < g; y++ {
			for lx := 0; lx < nx; lx++ {
				i := (z*g+y)*nx + lx
				au := 6*u[i] - pc.at(lx-1, y, z) - pc.at(lx+1, y, z) -
					pc.at(lx, y-1, z) - pc.at(lx, y+1, z) - pc.at(lx, y, z-1) - pc.at(lx, y, z+1)
				d := b[i] - au
				s += d * d
			}
		}
	}
	return math.Sqrt(r.AllreduceScalar(s, mp.OpSum))
}
