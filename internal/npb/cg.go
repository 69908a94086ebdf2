package npb

import (
	"math"
	"math/rand"
	"strconv"

	"spacesim/internal/machine"
	"spacesim/internal/mp"
	"spacesim/internal/obs"
)

// cgOpsPerRow is the accounted operation count per matrix row per CG
// iteration (NPB: two passes over ~13 nonzeros per row plus vector ops).
const cgOpsPerRow = 60

// RunCG executes the conjugate-gradient benchmark: the miniature solves a
// 3-D 7-point Laplacian system distributed as z-slabs (halo exchange per
// SpMV, two allreduce dot products per iteration — the NPB CG pattern),
// verified by residual reduction; costs are charged at the class size.
func RunCG(cluster machine.Cluster, procs int, class Class, actualGrid int, opt mp.RunOptions) Result {
	res := Result{Benchmark: CG, Class: class.Name, Procs: procs}
	res.Ops = float64(class.Iters) * float64(class.N) * cgOpsPerRow
	den := densities[CG]

	// accounting sizes per rank per miniature iteration: the miniature runs
	// a fixed iteration count, so each iteration carries scale = classIters
	// / miniatureIters worth of the class's per-iteration cost (bandwidth-
	// equivalent; per-message latency is undercounted, negligible at class
	// message sizes).
	const miniIters = 75
	scale := float64(class.Iters) / miniIters
	rowsPer := float64(class.N) / float64(procs)
	opsPerIter := rowsPer * cgOpsPerRow * scale
	haloBytes := int64(8 * math.Pow(float64(class.N), 2.0/3.0) * scale)

	verified := true
	detail := ""
	st := mp.RunWith(cluster, procs, opt, func(r *mp.Rank) {
		g := actualGrid
		nz := slabSize(g, r.Size(), r.ID())
		f := newField(g, nz)
		rng := rand.New(rand.NewSource(int64(r.ID()) + 17))
		b := make([]float64, len(f.v))
		for i := range b {
			b[i] = rng.Float64() - 0.5
		}
		x := make([]float64, len(b))
		// r0 = b - A*0 = b
		rv := append([]float64(nil), b...)
		p := append([]float64(nil), rv...)
		rr := dotAll(r, rv, rv)
		bb := rr
		iters := miniIters
		var prog *obs.Progress
		if r.ID() == 0 {
			prog = r.WorldObs().Progress()
			prog.SetTotal(iters)
		}
		for it := 0; it < iters; it++ {
			endIter := r.Span("npb", "cg-iter")
			ap := f.applyLaplacian(r, p, haloBytes)
			r.Charge(opsPerIter, den.eff, opsPerIter*den.bytesPerPt)
			pap := dotAll(r, p, ap)
			if pap == 0 {
				endIter()
				break
			}
			alpha := rr / pap
			for i := range x {
				x[i] += alpha * p[i]
				rv[i] -= alpha * ap[i]
			}
			rr2 := dotAll(r, rv, rv)
			beta := rr2 / rr
			rr = rr2
			for i := range p {
				p[i] = rv[i] + beta*p[i]
			}
			endIter()
			prog.StepDone(it+1, r.Clock())
		}
		if r.ID() == 0 {
			rel := math.Sqrt(rr / bb)
			if rel > 1e-2 {
				verified = false
				detail = "cg residual " + fmtG(rel)
			} else {
				detail = "relative residual " + fmtG(rel)
			}
		}
	})
	res.Verified = verified
	res.VerifyDetail = detail
	finish(&res, st.ElapsedVirtual)
	return res
}

// field is a z-slab of a g x g x nz grid with one-plane halos exchanged
// through the message layer.
type field struct {
	g, nz int
	v     []float64 // interior values, len g*g*nz
}

func newField(g, nz int) *field {
	return &field{g: g, nz: nz, v: make([]float64, g*g*nz)}
}

func slabSize(g, procs, rank int) int {
	lo := g * rank / procs
	hi := g * (rank + 1) / procs
	return hi - lo
}

func (f *field) idx(x, y, z int) int { return (z*f.g+y)*f.g + x }

// applyLaplacian computes (6I - shifts) * p with Dirichlet-0 boundaries,
// exchanging halo planes with z-neighbors. acctBytes is the accounted wire
// size of each halo plane.
func (f *field) applyLaplacian(r *mp.Rank, p []float64, acctBytes int64) []float64 {
	g, nz := f.g, f.nz
	plane := g * g
	up, down := exchangeHalos(r, p[:plane], p[len(p)-plane:], acctBytes)
	out := make([]float64, len(p))
	at := func(x, y, z int) float64 {
		if x < 0 || x >= g || y < 0 || y >= g {
			return 0
		}
		if z < 0 {
			if down == nil {
				return 0
			}
			return down[y*g+x]
		}
		if z >= nz {
			if up == nil {
				return 0
			}
			return up[y*g+x]
		}
		return p[(z*g+y)*g+x]
	}
	for z := 0; z < nz; z++ {
		for y := 0; y < g; y++ {
			for x := 0; x < g; x++ {
				i := f.idx(x, y, z)
				out[i] = 6*p[i] - at(x-1, y, z) - at(x+1, y, z) -
					at(x, y-1, z) - at(x, y+1, z) - at(x, y, z-1) - at(x, y, z+1)
			}
		}
	}
	return out
}

// exchangeHalos swaps the bottom plane with rank-1 and the top plane with
// rank+1 (non-periodic). Returns the plane above (from rank+1's bottom) and
// below (from rank-1's top); nil at domain boundaries.
func exchangeHalos(r *mp.Rank, bottom, top []float64, acctBytes int64) (up, down []float64) {
	const tag = 71
	me, n := r.ID(), r.Size()
	if n == 1 {
		return nil, nil
	}
	if me > 0 {
		r.Send(me-1, tag, append([]float64(nil), bottom...), acctBytes)
	}
	if me < n-1 {
		r.Send(me+1, tag, append([]float64(nil), top...), acctBytes)
	}
	if me < n-1 {
		d, _ := r.Recv(me+1, tag)
		up = d.([]float64)
	}
	if me > 0 {
		d, _ := r.Recv(me-1, tag)
		down = d.([]float64)
	}
	return up, down
}

func dotAll(r *mp.Rank, a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return r.AllreduceScalar(s, mp.OpSum)
}

func fmtG(v float64) string {
	return strconv.FormatFloat(v, 'g', 4, 64)
}
