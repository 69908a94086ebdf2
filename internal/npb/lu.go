package npb

import (
	"math"
	"math/rand"

	"spacesim/internal/machine"
	"spacesim/internal/mp"
)

// RunLU executes the LU pseudo-application analogue: SSOR sweeps on a 3-D
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
func RunLU(cluster machine.Cluster, procs int, class Class, actualGrid int) Result {
	res := Result{Benchmark: LU, Class: class.Name, Procs: procs}
	ntot := math.Pow(float64(class.N), 3)
	den := densities[LU]
	// The Figure 5 cache effect: when a rank's working set approaches the
	// P4's cache, LU's wavefront reuse turns main-memory traffic into cache
	// hits ("the problem being divided into enough pieces that it fits into
	// L2 cache"), so the per-point memory traffic shrinks.
	wsBytes := 8 * 5 * ntot / float64(procs)
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

	verified := true
	detail := ""
	st := mp.Run(cluster, procs, func(r *mp.Rank) {
		p := r.Size()
		g := actualGrid
		if g%p != 0 {
			panic("npb: LU grid must divide rank count")
		}
		nx := g / p
		me := r.ID()
		rng := rand.New(rand.NewSource(int64(me)*41 + 11))
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
		norm0 := luResidualNorm(r, u, b, g, nx, sideBytes)
		prev := norm0
		for it := 0; it < iters; it++ {
			// old-value side planes for the downstream x-neighbor
			leftOld, rightOld := exchangeSides(r, u, g, nx, sideBytes)
			luSweep(r, u, b, g, nx, leftOld, rightOld, true, omega, stripBytes, chargePlane)
			leftMid, rightMid := exchangeSides(r, u, g, nx, sideBytes)
			luSweep(r, u, b, g, nx, leftMid, rightMid, false, omega, stripBytes, chargePlane)
			cur := luResidualNorm(r, u, b, g, nx, sideBytes)
			if r.ID() == 0 {
				if cur > prev*(1+1e-12) {
					verified = false
					detail = "SSOR residual increased"
				}
				prev = cur
			}
		}
		if r.ID() == 0 && prev > 0.7*norm0 {
			verified = false
			detail = "SSOR reduction too weak: " + fmtG(prev/norm0)
		}
	})
	res.Verified = verified
	res.VerifyDetail = detail
	finish(&res, st.ElapsedVirtual)
	return res
}

// luSweep performs one SOR pass in ascending (lower=true) or descending
// order with plane-pipelined boundary strips between x-neighbor ranks.
// left and right are the neighbors' old side planes ([z*g+y] indexed).
func luSweep(r *mp.Rank, u, b []float64, g, nx int, left, right []float64, lower bool, omega float64, stripBytes int64, chargePlane func()) {
	p := r.Size()
	me := r.ID()
	const tag = 95
	// fresh holds the upstream neighbor's just-computed boundary strip for
	// the current plane; it overrides the old side plane.
	fresh := make([]float64, g)
	at := func(lx, y, z int) float64 {
		if y < 0 || y >= g || z < 0 || z >= g {
			return 0
		}
		if lx < 0 {
			if left == nil {
				return 0
			}
			return left[z*g+y]
		}
		if lx >= nx {
			if right == nil {
				return 0
			}
			return right[z*g+y]
		}
		return u[(z*g+y)*nx+lx]
	}
	update := func(lx, y, z int, upstream []float64) {
		i := (z*g+y)*nx + lx
		low := at(lx-1, y, z)  // old side plane when lx == 0
		high := at(lx+1, y, z) // old side plane when lx == nx-1
		if lower && lx == 0 && upstream != nil {
			low = upstream[y] // fresh strip from the left, same plane
		}
		if !lower && lx == nx-1 && upstream != nil {
			high = upstream[y] // fresh strip from the right, same plane
		}
		sum := low + high + at(lx, y-1, z) + at(lx, y+1, z) + at(lx, y, z-1) + at(lx, y, z+1)
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

// exchangeSides swaps full side planes (x boundaries) with the x-neighbor
// ranks; returns the left neighbor's rightmost plane and the right
// neighbor's leftmost plane (nil at domain edges).
func exchangeSides(r *mp.Rank, u []float64, g, nx int, acctBytes int64) (left, right []float64) {
	const tag = 97
	me, p := r.ID(), r.Size()
	if p == 1 {
		return nil, nil
	}
	myLeft := make([]float64, g*g)
	myRight := make([]float64, g*g)
	for z := 0; z < g; z++ {
		for y := 0; y < g; y++ {
			myLeft[z*g+y] = u[(z*g+y)*nx]
			myRight[z*g+y] = u[(z*g+y)*nx+nx-1]
		}
	}
	if me > 0 {
		r.Send(me-1, tag, myLeft, acctBytes)
	}
	if me < p-1 {
		r.Send(me+1, tag, myRight, acctBytes)
	}
	if me < p-1 {
		d, _ := r.Recv(me+1, tag)
		right = d.([]float64)
	}
	if me > 0 {
		d, _ := r.Recv(me-1, tag)
		left = d.([]float64)
	}
	return left, right
}

// luResidualNorm computes the global L2 residual of the Poisson system on
// the pencil layout.
func luResidualNorm(r *mp.Rank, u, b []float64, g, nx int, acctBytes int64) float64 {
	left, right := exchangeSides(r, u, g, nx, acctBytes)
	at := func(lx, y, z int) float64 {
		if y < 0 || y >= g || z < 0 || z >= g {
			return 0
		}
		if lx < 0 {
			if left == nil {
				return 0
			}
			return left[z*g+y]
		}
		if lx >= nx {
			if right == nil {
				return 0
			}
			return right[z*g+y]
		}
		return u[(z*g+y)*nx+lx]
	}
	s := 0.0
	for z := 0; z < g; z++ {
		for y := 0; y < g; y++ {
			for lx := 0; lx < nx; lx++ {
				i := (z*g+y)*nx + lx
				au := 6*u[i] - at(lx-1, y, z) - at(lx+1, y, z) -
					at(lx, y-1, z) - at(lx, y+1, z) - at(lx, y, z-1) - at(lx, y, z+1)
				d := b[i] - au
				s += d * d
			}
		}
	}
	return math.Sqrt(r.AllreduceScalar(s, mp.OpSum))
}
