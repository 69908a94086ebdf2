package npb

import (
	"math"
	"math/rand"

	"spacesim/internal/machine"
	"spacesim/internal/mp"
)

// runEP executes the embarrassingly parallel benchmark: generate Gaussian
// pairs by the Box-Muller/acceptance method and histogram them in annuli;
// the only communication is the final 10-bin reduction. The miniature
// generates 2^actualLog pairs; costs are charged at 2^class.N pairs.
func runEP(res Result, cluster machine.Cluster, class Class, actualLog int) Result {
	pairs := math.Pow(2, float64(class.N))
	den := densities[EP]
	res.Ops = pairs * den.flopsPerPt

	return run(res, cluster, func(r *mp.Rank) (bool, string) {
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
		var binSum float64
		for i := 0; i < 10; i++ {
			binSum += tot[i]
		}
		acc := tot[12]
		rate := acc / float64(nLocal*r.Size())
		mean := math.Abs(tot[10]/acc) + math.Abs(tot[11]/acc)
		// the Gaussian means must be ~0, the acceptance rate ~ pi/4, and
		// every accepted pair must land in the first 10 annuli
		switch {
		case mean > 0.05:
			return false, "gaussian mean bias " + fmtG(mean)
		case math.Abs(rate-math.Pi/4) > 0.05:
			return false, "acceptance rate " + fmtG(rate)
		case binSum != acc:
			return false, "bin sum mismatch"
		}
		return true, ""
	})
}
