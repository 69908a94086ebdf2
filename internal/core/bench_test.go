package core

import (
	"math/rand"
	"testing"

	"spacesim/internal/mp"
)

// BenchmarkComputeForcesGrouped runs one collective force evaluation per
// iteration on a 4-rank distributed tree.
func BenchmarkComputeForcesGrouped(b *testing.B) {
	rng := rand.New(rand.NewSource(40))
	const n = 4000
	const p = 4
	ics := PlummerSphere(rng, n, 1.0)
	opt := Options{Theta: 0.6, Eps: 0.02}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mp.Run(testCluster(), p, func(r *mp.Rank) {
			lo, hi := n*r.ID()/p, n*(r.ID()+1)/p
			local := append([]Body(nil), ics[lo:hi]...)
			bodies, splitters, boxLo, boxSize := Decompose(r, local)
			dt := BuildDistributed(r, bodies, splitters, boxLo, boxSize, opt)
			dt.ComputeForces(bodies)
		})
	}
}

// BenchmarkComputeForcesSerial is one force evaluation per iteration at the
// configuration of bench/'s plummer-serial workload — 32768 bodies, one rank,
// one pool worker, buckets of 16 — on a tree built once: the walk, the list
// assembly and the kernels, without decomposition or build. `make
// profile-serial` profiles it.
func BenchmarkComputeForcesSerial(b *testing.B) {
	ics := PlummerSphere(rand.New(rand.NewSource(1)), 32768, 1.0)
	opt := Options{Theta: 0.7, Eps: 0.01, MaxLeaf: 16, Workers: 1}
	st := mp.Run(testCluster(), 1, func(r *mp.Rank) {
		bodies, splitters, boxLo, boxSize := Decompose(r, ics)
		dt := BuildDistributed(r, bodies, splitters, boxLo, boxSize, opt)
		dt.ComputeForces(bodies) // warm the scratch pool
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dt.ComputeForces(bodies)
		}
	})
	// How the evaluations split between the pool's worker and the rank.
	c := func(name string) float64 { return float64(st.Obs.Reg.Counter(name).Value()) }
	b.ReportMetric(c("core.pool.busy_ns")/c("core.pool.wall_ns"), "pool-busy")
	b.ReportMetric(c("core.pool.inline_jobs")/c("core.pool.jobs"), "inline-share")
}
