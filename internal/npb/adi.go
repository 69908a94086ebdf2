package npb

import (
	"math"
	"sync"

	"spacesim/internal/machine"
	"spacesim/internal/mp"
	"spacesim/internal/obs"
)

// runADI executes the BT/SP-style pseudo-application: an alternating
// direction implicit (ADI) solve of the 3-D heat equation. Each iteration
// performs tridiagonal line solves along x, y (local to the z-slabs) and z
// (made local by a global transpose, as NPB's multipartition effectively
// does — comm volume is one full field exchange per direction pass). BT
// and SP differ in their per-point operation density (block 5x5 vs scalar
// pentadiagonal solves), captured by the densities table.
//
// The miniature evolves a g^3 field and is verified against a
// single-rank execution (the ADI update is deterministic), plus a maximum
// principle check (diffusion never creates new extrema).
func runADI(res Result, cluster machine.Cluster, class Class, g int) Result {
	ntot := math.Pow(float64(class.N), 3)
	den := densities[res.Benchmark]
	res.Ops = den.flopsPerPt * ntot * float64(class.Iters)

	return run(res, cluster, func(r *mp.Rank) (bool, string) {
		iters := min(class.Iters, 3)
		u := adiInit(g, r.Size(), r.ID())
		u0max := maxAbs(u)
		adiEvolve(r, den, class, u, g, iters)
		// maximum principle: diffusion with zero boundaries contracts
		ok, detail := true, ""
		if maxAbs(u) > u0max*(1+1e-12) {
			ok, detail = false, "maximum principle violated"
		}
		// cross-rank check: global checksum must match the serial value
		sum := 0.0
		for _, v := range u {
			sum += v
		}
		tot := r.AllreduceScalar(sum, mp.OpSum)
		if r.ID() == 0 {
			serial := adiSerialChecksum(g, iters)
			if math.Abs(tot-serial) > 1e-9*(1+math.Abs(serial)) {
				ok, detail = false, "checksum "+fmtG(tot)+" != serial "+fmtG(serial)
			}
		}
		return ok, detail
	})
}

// adiInit builds this rank's z-slab of the deterministic initial field.
// Cell values come from a position hash so any rank can generate its slab
// without materializing the global grid.
func adiInit(g, procs, rank int) []float64 {
	nz := g / procs
	z0 := rank * nz
	u := make([]float64, g*g*nz)
	for z := 0; z < nz; z++ {
		for y := 0; y < g; y++ {
			for x := 0; x < g; x++ {
				gi := int64(((z0+z)*g+y)*g + x)
				u[(z*g+y)*g+x] = adiValue(gi)
			}
		}
	}
	return u
}

// adiValue hashes a global cell index to a deterministic value in
// [-0.5, 0.5) (splitmix64 finalizer).
func adiValue(i int64) float64 {
	x := uint64(i) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/float64(1<<53) - 0.5
}

// adiEvolve advances the field by iters ADI steps, charging class-size
// costs.
func adiEvolve(r *mp.Rank, den density, class Class, u []float64, g, iters int) {
	p := r.Size()
	nz := g / p
	ntot := math.Pow(float64(class.N), 3)
	scale := float64(class.Iters) / float64(iters)
	acctPtsPerRank := ntot / float64(p) * scale
	// NPB BT/SP use a multipartition decomposition that overlaps nearly all
	// boundary communication with the line solves; the transpose here is
	// the bandwidth-equivalent pattern, so only the non-overlapped fraction
	// is charged.
	const overlap = 0.15
	acctChunk := int64(8 * acctPtsPerRank / float64(p) * overlap)
	const lambda = 0.4 // dt/dx^2

	var prog *obs.Progress
	if r.ID() == 0 {
		prog = r.WorldObs().Progress()
		prog.SetTotal(iters)
	}
	for it := 0; it < iters; it++ {
		endIter := r.Span("npb", "adi-iter")
		// x and y direction implicit solves: local to the slab
		for dir := 0; dir < 2; dir++ {
			adiSweepLocal(u, g, nz, dir, lambda)
			r.Charge(acctPtsPerRank*den.flopsPerPt/3, den.eff, acctPtsPerRank*den.bytesPerPt/3)
		}
		// z direction: transpose so z becomes local, solve, transpose back
		tr := transpose(r, u, g, acctChunk, true)
		// tr layout: [x-local][y][z-global]; solve along z
		for x := 0; x < g/p; x++ {
			for y := 0; y < g; y++ {
				line := tr[(x*g+y)*g : (x*g+y)*g+g]
				thomasSolve(line, lambda)
			}
		}
		r.Charge(acctPtsPerRank*den.flopsPerPt/3, den.eff, acctPtsPerRank*den.bytesPerPt/3)
		copy(u, transpose(r, tr, g, acctChunk, false))
		endIter()
		prog.StepDone(it+1, r.Clock())
	}
}

// adiSweepLocal solves (I - lambda * D2) u = u along dir (0=x, 1=y) for
// every line of the slab.
func adiSweepLocal(u []float64, g, nz, dir int, lambda float64) {
	line := make([]float64, g)
	for z := 0; z < nz; z++ {
		plane := u[z*g*g : (z+1)*g*g]
		for a := 0; a < g; a++ {
			for i := 0; i < g; i++ {
				if dir == 0 {
					line[i] = plane[a*g+i] // row y=a
				} else {
					line[i] = plane[i*g+a] // column x=a
				}
			}
			thomasSolve(line, lambda)
			for i := 0; i < g; i++ {
				if dir == 0 {
					plane[a*g+i] = line[i]
				} else {
					plane[i*g+a] = line[i]
				}
			}
		}
	}
}

// thomasSolve solves the tridiagonal system (1+2L) x_i - L x_{i-1} - L
// x_{i+1} = rhs_i with Dirichlet-0 ends, in place.
func thomasSolve(x []float64, l float64) {
	n := len(x)
	c := make([]float64, n)
	b := 1 + 2*l
	// forward sweep
	c[0] = -l / b
	x[0] = x[0] / b
	for i := 1; i < n; i++ {
		m := b + l*c[i-1]
		c[i] = -l / m
		x[i] = (x[i] + l*x[i-1]) / m
	}
	// back substitution
	for i := n - 2; i >= 0; i-- {
		x[i] -= c[i] * x[i+1]
	}
}

// serialSums memoizes adiSerialChecksum per (g, iters): BT, SP and every
// scaling row at one grid check against the same serial evolution.
var serialSums = struct {
	sync.Mutex
	m map[[2]int]float64
}{m: map[[2]int]float64{}}

// adiSerialChecksum runs the same evolution on one rank without any
// communication machinery, returning the field sum.
func adiSerialChecksum(g, iters int) float64 {
	serialSums.Lock()
	defer serialSums.Unlock()
	key := [2]int{g, iters}
	if s, ok := serialSums.m[key]; ok {
		return s
	}
	u := adiInit(g, 1, 0)
	const lambda = 0.4
	tr := make([]float64, g*g*g)
	for it := 0; it < iters; it++ {
		adiSweepLocal(u, g, g, 0, lambda)
		adiSweepLocal(u, g, g, 1, lambda)
		// z sweep via local transpose
		for z := 0; z < g; z++ {
			for y := 0; y < g; y++ {
				for x := 0; x < g; x++ {
					tr[(x*g+y)*g+z] = u[(z*g+y)*g+x]
				}
			}
		}
		for x := 0; x < g; x++ {
			for y := 0; y < g; y++ {
				thomasSolve(tr[(x*g+y)*g:(x*g+y)*g+g], lambda)
			}
		}
		for z := 0; z < g; z++ {
			for y := 0; y < g; y++ {
				for x := 0; x < g; x++ {
					u[(z*g+y)*g+x] = tr[(x*g+y)*g+z]
				}
			}
		}
	}
	s := 0.0
	for _, v := range u {
		s += v
	}
	serialSums.m[key] = s
	return s
}

func maxAbs(xs []float64) float64 {
	m := 0.0
	for _, v := range xs {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}
