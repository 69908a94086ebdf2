package npb

import (
	"math"
	"math/rand"

	"spacesim/internal/machine"
	"spacesim/internal/mp"
)

// RunEP executes the embarrassingly parallel benchmark: generate Gaussian
// pairs by the Box-Muller/acceptance method and histogram them in annuli;
// the only communication is the final 10-bin reduction. The miniature
// generates 2^actualLog pairs; costs are charged at 2^class.N pairs.
func RunEP(cluster machine.Cluster, procs int, class Class, actualLog int) Result {
	res := Result{Benchmark: EP, Class: class.Name, Procs: procs}
	pairs := math.Pow(2, float64(class.N))
	den := densities[EP]
	res.Ops = pairs * den.flopsPerPt

	verified := true
	detail := ""
	st := mp.Run(cluster, procs, func(r *mp.Rank) {
		nLocal := int(math.Pow(2, float64(actualLog))) / r.Size()
		rng := rand.New(rand.NewSource(int64(r.ID())*7919 + 1))
		var bins [10]float64
		var sx, sy float64
		accepted := 0
		for i := 0; i < nLocal; i++ {
			x := 2*rng.Float64() - 1
			y := 2*rng.Float64() - 1
			t := x*x + y*y
			if t > 1 || t == 0 {
				continue
			}
			f := math.Sqrt(-2 * math.Log(t) / t)
			gx, gy := x*f, y*f
			sx += gx
			sy += gy
			m := math.Max(math.Abs(gx), math.Abs(gy))
			if int(m) < 10 {
				bins[int(m)]++
			}
			accepted++
		}
		// Charge at accounting size: pairs/P at the class pair count.
		acctPairs := pairs / float64(r.Size())
		r.Charge(acctPairs*den.flopsPerPt, den.eff, acctPairs*den.bytesPerPt)
		// reduce bins and sums
		buf := make([]float64, 13)
		copy(buf, bins[:])
		buf[10], buf[11], buf[12] = sx, sy, float64(accepted)
		tot := r.Allreduce(buf, mp.OpSum)
		if r.ID() == 0 {
			var binSum float64
			for i := 0; i < 10; i++ {
				binSum += tot[i]
			}
			acc := tot[12]
			// all accepted pairs must land in the first 10 annuli, the
			// acceptance rate must be ~ pi/4, and the Gaussian means ~0
			if binSum != acc {
				verified = false
				detail = "bin sum mismatch"
			}
			total := float64(nLocal * r.Size())
			rate := acc / total
			if math.Abs(rate-math.Pi/4) > 0.05 {
				verified = false
				detail = "acceptance rate " + fmtG(rate)
			}
			mean := math.Abs(tot[10]/acc) + math.Abs(tot[11]/acc)
			if mean > 0.05 {
				verified = false
				detail = "gaussian mean bias " + fmtG(mean)
			}
		}
	})
	res.Verified = verified
	res.VerifyDetail = detail
	finish(&res, st.ElapsedVirtual)
	return res
}
