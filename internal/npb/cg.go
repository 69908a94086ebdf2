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

// runCG executes the conjugate-gradient benchmark: the miniature solves a
// 3-D 7-point Laplacian system distributed as z-slabs (halo exchange per
// SpMV, two allreduce dot products per iteration — the NPB CG pattern),
// verified by residual reduction; costs are charged at the class size.
func runCG(res Result, cluster machine.Cluster, class Class, g int) Result {
	res.Ops = float64(class.Iters) * float64(class.N) * cgOpsPerRow
	den := densities[CG]

	// accounting sizes per rank per miniature iteration: the miniature runs
	// a fixed iteration count, so each iteration carries scale = classIters
	// / miniatureIters worth of the class's per-iteration cost (bandwidth-
	// equivalent; per-message latency is undercounted, negligible at class
	// message sizes).
	const miniIters = 75
	scale := float64(class.Iters) / miniIters
	rowsPer := float64(class.N) / float64(res.Procs)
	opsPerIter := rowsPer * cgOpsPerRow * scale
	haloBytes := int64(8 * math.Pow(float64(class.N), 2.0/3.0) * scale)

	return run(res, cluster, func(r *mp.Rank) (bool, string) {
		rng := rand.New(rand.NewSource(int64(r.ID()) + 17))
		b := make([]float64, g*g*(g/r.Size()))
		for i := range b {
			b[i] = rng.Float64() - 0.5
		}
		x := make([]float64, len(b))
		// r0 = b - A*0 = b
		rv := append([]float64(nil), b...)
		p := append([]float64(nil), rv...)
		rr := dotAll(r, rv, rv)
		bb := rr
		var prog *obs.Progress
		if r.ID() == 0 {
			prog = r.WorldObs().Progress()
			prog.SetTotal(miniIters)
		}
		for it := 0; it < miniIters; it++ {
			endIter := r.Span("npb", "cg-iter")
			ap := exchanged(r, g, p, haloBytes).laplacian()
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
		// rr and bb are allreduced: every rank checks the same residual
		rel := math.Sqrt(rr / bb)
		if rel > 1e-2 {
			return false, "cg residual " + fmtG(rel)
		}
		return true, "relative residual " + fmtG(rel)
	})
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
