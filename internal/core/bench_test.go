package core

import (
	"math/rand"
	"runtime"
	"testing"

	"spacesim/internal/mp"
	"spacesim/internal/obs"
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
// one worker, buckets of 16 — on a tree built once: the walk, the list
// assembly and the kernels, without decomposition or build. `make
// profile-serial` profiles it.
func BenchmarkComputeForcesSerial(b *testing.B) {
	ics := PlummerSphere(rand.New(rand.NewSource(1)), 32768, 1.0)
	opt := Options{Theta: 0.7, Eps: 0.01, MaxLeaf: 16, Workers: 1}
	mp.Run(testCluster(), 1, func(r *mp.Rank) {
		bodies, splitters, boxLo, boxSize := Decompose(r, ics)
		dt := BuildDistributed(r, bodies, splitters, boxLo, boxSize, opt)
		dt.ComputeForces(bodies) // warm the list scratch
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dt.ComputeForces(bodies)
		}
	})
}

// BenchmarkStep runs bench/'s three N-body configurations — serial: 32768
// Plummer bodies on one rank with one worker; dist8: the same bodies on
// 8 ranks in one switch module; dist64: 32768 cold-sphere bodies on 64 ranks
// over four, both with two workers a rank — the ranks on a pool as wide
// as the host and buckets of 16, through Run, one leapfrog step per iteration:
// decomposition, tree build and branch exchange, walk and kernels, all P
// times over on one host. The initial evaluation is inside the timer, so b.N
// iterations are b.N+1 force evaluations and the reported metrics are per
// evaluation: the sink groups walked and the MB allocated. `make
// profile-serial`, `make profile-dist8` and `make profile-dist64` profile
// them.
func BenchmarkStep(b *testing.B) {
	for _, w := range []struct {
		name, scenario string
		procs, workers int
	}{{"serial", "plummer", 1, 1}, {"dist8", "plummer", 8, 2}, {"dist64", "coldsphere", 64, 2}} {
		b.Run(w.name, func(b *testing.B) {
			ics, err := MakeICs(w.scenario, 1, 32768)
			if err != nil {
				b.Fatal(err)
			}
			o := obs.New(false)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			res := Run(RunConfig{
				Cluster: testCluster().WithObs(o), Procs: w.procs, Steps: b.N,
				Opt: Options{Theta: 0.7, Eps: 0.01, DT: 0.005, MaxLeaf: 16, Workers: w.workers},
			}, ics)
			b.StopTimer()
			runtime.ReadMemStats(&after)
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			evals := float64(b.N + 1)
			b.ReportMetric(float64(o.Snapshot().Counters["core.buckets"])/evals, "groups/step")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)/evals, "MB/step")
		})
	}
}

// BenchmarkMakeICs is the set-up of bench/'s N-body workloads: 32768 bodies
// of each scenario per iteration, drawn on one goroutine and mapped on the
// host's width.
func BenchmarkMakeICs(b *testing.B) {
	for _, scenario := range Scenarios() {
		b.Run(scenario, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := MakeICs(scenario, 1, 32768); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
