package core

import (
	"math"
	"math/rand"
	"testing"
)

// The two relations of htree's TestGroupedForcesScaleExactly and
// TestGroupedForcesIgnoreInputOrder, through Decompose, BuildDistributed and
// ComputeForces on one rank: a system scaled by 2^k in length (softening
// included) and 2^3k in mass has every acceleration times exactly 2^k and
// every potential times 2^2k, and handing the bodies in in another order
// changes no bit of any body's force.
func TestForcesScaleExactlyAndIgnoreInputOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	ics := PlummerSphere(rng, 3000, 1.0)
	opt := Options{Theta: 0.7, Eps: 0.01, MaxLeaf: 16}
	acc, pot := forcesWith(ics, 1, opt)

	for _, k := range []int{-7, 3, 20} {
		scaled := append([]Body(nil), ics...)
		for i := range scaled {
			scaled[i].Pos = scaled[i].Pos.Scale(math.Ldexp(1, k))
			scaled[i].Mass = math.Ldexp(scaled[i].Mass, 3*k)
		}
		sopt := opt
		sopt.Eps = math.Ldexp(opt.Eps, k)
		sacc, spot := forcesWith(scaled, 1, sopt)
		for i := range acc {
			if sacc[i] != acc[i].Scale(math.Ldexp(1, k)) || spot[i] != math.Ldexp(pot[i], 2*k) {
				t.Fatalf("k=%d: body %d: (%v, %v), want exactly 2^k x %v and 2^2k x %v", k, i, sacc[i], spot[i], acc[i], pot[i])
			}
		}
	}

	shuffled := append([]Body(nil), ics...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	pacc, ppot := forcesWith(shuffled, 1, opt) // indexed by body ID, like acc
	for i := range acc {
		if pacc[i] != acc[i] || ppot[i] != pot[i] {
			t.Fatalf("body %d: (%v, %v) from the shuffled input, (%v, %v) from the original", i, pacc[i], ppot[i], acc[i], pot[i])
		}
	}
}
