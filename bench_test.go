package spacesim

// One benchmark per table and figure of the paper's evaluation. Each bench
// regenerates the corresponding result under the virtual-time cluster model
// and reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// prints the whole reproduction in one sweep. EXPERIMENTS.md records the
// paper-vs-measured comparison.

import (
	"math/rand"
	"testing"

	"spacesim/internal/cluster"
	"spacesim/internal/core"
	"spacesim/internal/cosmo"
	"spacesim/internal/gravity"
	"spacesim/internal/hpl"
	"spacesim/internal/htree"
	"spacesim/internal/machine"
	"spacesim/internal/netsim"
	"spacesim/internal/npb"
	"spacesim/internal/pario"
	"spacesim/internal/perfmodel"
	"spacesim/internal/reliability"
	"spacesim/internal/sph"
	"spacesim/internal/vec"
)

func ss() machine.Cluster { return machine.SpaceSimulator(netsim.ProfileLAM) }

// BenchmarkTable1PricePerf recomputes the bill of materials of Table 1.
func BenchmarkTable1PricePerf(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		bom := cluster.SpaceSimulatorBOM()
		total = bom.Total()
	}
	b.ReportMetric(total, "USD")
	b.ReportMetric(cluster.SpaceSimulatorBOM().PerNode(), "USD/node")
}

// BenchmarkTable2ClockScaling evaluates all Table 2 rows under the four
// machine configurations and reports the mean absolute ratio error vs the
// paper.
func BenchmarkTable2ClockScaling(b *testing.B) {
	var meanErr float64
	for i := 0; i < b.N; i++ {
		sum, n := 0.0, 0
		for _, w := range perfmodel.Table2Workloads() {
			paper := perfmodel.Table2Paper[w.Name]
			cfgs := []perfmodel.Config{perfmodel.SlowMem, perfmodel.SlowCPU, perfmodel.Overclock}
			for j, c := range cfgs {
				d := w.Ratio(c) - paper[j]
				if d < 0 {
					d = -d
				}
				sum += d
				n++
			}
		}
		meanErr = sum / float64(n)
	}
	b.ReportMetric(meanErr, "mean-ratio-err")
}

// BenchmarkTable3NPBClassC64 runs the six class C kernels on 64 virtual
// processors (Table 3).
func BenchmarkTable3NPBClassC64(b *testing.B) {
	var lu float64
	for i := 0; i < b.N; i++ {
		for _, k := range []npb.Benchmark{npb.BT, npb.SP, npb.LU, npb.CG, npb.FT, npb.IS} {
			res, err := npb.Run(k, ss(), 64, "C")
			if err != nil || !res.Verified {
				b.Fatalf("%s: %v %s", k, err, res.VerifyDetail)
			}
			if k == npb.LU {
				lu = res.MopsTotal
			}
		}
	}
	b.ReportMetric(lu, "LU-Mop/s")
}

// BenchmarkTable4NPBClassD256 runs the class D kernels on 256 virtual
// processors (Table 4).
func BenchmarkTable4NPBClassD256(b *testing.B) {
	var bt float64
	for i := 0; i < b.N; i++ {
		for _, k := range []npb.Benchmark{npb.BT, npb.SP, npb.LU, npb.CG, npb.FT} {
			res, err := npb.Run(k, ss(), 256, "D")
			if err != nil || !res.Verified {
				b.Fatalf("%s: %v %s", k, err, res.VerifyDetail)
			}
			if k == npb.BT {
				bt = res.MopsTotal
			}
		}
	}
	b.ReportMetric(bt, "BT-Mop/s")
}

// BenchmarkTable5GravityKernel measures the real gravity micro-kernel on
// the host (both variants) and reports the modeled SS rate.
func BenchmarkTable5GravityKernel(b *testing.B) {
	cpu := machine.SpaceSimulatorCPU
	var mflops float64
	for i := 0; i < b.N; i++ {
		mflops = cpu.KernelMflops(true)
	}
	b.ReportMetric(mflops, "SS-karp-Mflop/s")
	b.ReportMetric(cpu.KernelMflops(false), "SS-libm-Mflop/s")
}

// BenchmarkTable6Treecode runs the virtual-time treecode on the cold-sphere
// problem (Table 6's standard benchmark) and reports Mflops/proc.
func BenchmarkTable6Treecode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ics := core.ColdSphere(rng, 8000, 1.0)
	var perProc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.Run(core.RunConfig{
			Cluster: ss(), Procs: 16, Steps: 1,
			Opt: core.Options{Theta: 0.7, Eps: 0.01, DT: 1e-3},
		}, ics)
		perProc = res.MflopsPerProc
	}
	b.ReportMetric(perProc, "Mflops/proc")
	b.ReportMetric(machine.Table6Machines[1].MflopsPerProc(), "model-Mflops/proc")
}

// BenchmarkTable7Loki recomputes the 1996 bill of materials.
func BenchmarkTable7Loki(b *testing.B) {
	var perNode float64
	for i := 0; i < b.N; i++ {
		perNode = cluster.LokiBOM().PerNode()
	}
	b.ReportMetric(perNode, "USD/node")
}

// BenchmarkFig2NetPIPE sweeps the message-size curve for every library
// profile and reports the TCP peak.
func BenchmarkFig2NetPIPE(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		for _, p := range netsim.AllProfiles() {
			for sz := int64(1); sz <= 8<<20; sz *= 4 {
				bw := p.Bandwidth(sz)
				if p.Name == "TCP" && bw > peak {
					peak = bw
				}
			}
		}
	}
	b.ReportMetric(peak/1e6, "TCP-peak-Mb/s")
}

// BenchmarkSwitchBackplane reproduces the Section 3.1 cross-module probe.
func BenchmarkSwitchBackplane(b *testing.B) {
	net := netsim.MustNew(netsim.SpaceSimulatorTopology(), netsim.ProfileTCP)
	flows := net.Topo.CrossModuleFlows(0, 1)
	var agg float64
	for i := 0; i < b.N; i++ {
		agg = net.AggregateBandwidth(flows)
	}
	b.ReportMetric(agg/1e6, "Mb/s")
}

// BenchmarkFig3Linpack evaluates both Figure 3 configurations and runs the
// real distributed LU at small scale.
func BenchmarkFig3Linpack(b *testing.B) {
	var apr float64
	for i := 0; i < b.N; i++ {
		apr = hpl.ModelGflops(hpl.April2003())
		res, err := hpl.RunParallel(ss(), 4, 96, 8, 7)
		if err != nil || res.Residual > 16 {
			b.Fatalf("parallel LU: %v residual %v", err, res.Residual)
		}
	}
	b.ReportMetric(apr, "Gflop/s")
	b.ReportMetric(hpl.ModelGflops(hpl.October2002()), "Oct-Gflop/s")
}

// BenchmarkFig4NPBClassDScaling sweeps class D over processor counts.
func BenchmarkFig4NPBClassDScaling(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		for _, p := range []int{16, 64, 256} {
			res, err := npb.Run(npb.LU, ss(), p, "D")
			if err != nil || !res.Verified {
				b.Fatalf("LU %d: %v", p, err)
			}
			last = res.MopsPerProc
		}
	}
	b.ReportMetric(last, "LU256-Mop/s/proc")
}

// BenchmarkFig5NPBClassCScaling sweeps class C over processor counts.
func BenchmarkFig5NPBClassCScaling(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		for _, p := range []int{4, 16, 64} {
			res, err := npb.Run(npb.FT, ss(), p, "C")
			if err != nil || !res.Verified {
				b.Fatalf("FT %d: %v", p, err)
			}
			last = res.MopsPerProc
		}
	}
	b.ReportMetric(last, "FT64-Mop/s/proc")
}

// BenchmarkFig6MortonOrder builds keys for a condensed particle set and
// sorts them (the domain-decomposition primitive behind Figure 6).
func BenchmarkFig6MortonOrder(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	ics := core.PlummerSphere(rng, 20000, 1.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.Run(core.RunConfig{
			Cluster: ss(), Procs: 4, Steps: 0,
			Opt: core.Options{Theta: 0.7, Eps: 0.01, DT: 1e-3},
		}, ics)
		_ = res
	}
}

// BenchmarkFig7Cosmology runs the scaled-down production pipeline and
// reports the modeled aggregate I/O rate of the full-size run.
func BenchmarkFig7Cosmology(b *testing.B) {
	m := pario.Fig7Run()
	c := cosmo.EdS()
	var gf float64
	for i := 0; i < b.N; i++ {
		ics := cosmo.GenerateICs(c, cosmo.ICOptions{GridN: 8, BoxMpch: 32, AStart: 0.15, Seed: 9})
		res := core.Run(core.RunConfig{
			Cluster: ss(), Procs: 4, Steps: 2,
			Opt: core.Options{Theta: 0.7, Eps: 0.3, DT: 0.6},
		}, ics.Bodies)
		gf = res.Gflops
	}
	b.ReportMetric(m.AvgIORate()/1e6, "model-IO-MB/s")
	b.ReportMetric(gf, "pipeline-Gflop/s")
}

// BenchmarkFig8Supernova runs a reduced rotating collapse to bounce.
func BenchmarkFig8Supernova(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		s := sph.NewRotatingCollapse(sph.RotatingCollapseOptions{
			N: 600, Omega: 0.3, PressureDeficit: 0.85, Seed: 3,
		})
		if _, ok := s.RunUntilBounce(250); !ok {
			b.Fatal("no bounce")
		}
		prof := s.AngularMomentumByAngle(6)
		ratio = prof[5] / prof[0]
	}
	b.ReportMetric(ratio, "equator/pole-j")
}

// BenchmarkReliability draws Monte-Carlo failure histories.
func BenchmarkReliability(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		sim := reliability.Simulate(reliability.Options{Seed: int64(i)})
		frac = sim.SMARTPredictedFraction()
	}
	b.ReportMetric(frac, "SMART-fraction")
}

// BenchmarkMooresLaw evaluates the Section 5 comparisons.
func BenchmarkMooresLaw(b *testing.B) {
	var vs float64
	for i := 0; i < b.N; i++ {
		vs = cluster.TreecodeMoore().ImprovementVsPredicted
	}
	b.ReportMetric(vs, "treecode-vs-Moore")
}

// treewalkTree builds the 32k-particle Plummer tree shared by the treewalk
// engine benchmarks.
func treewalkTree(b *testing.B) *htree.Tree {
	rng := rand.New(rand.NewSource(5))
	ics := core.PlummerSphere(rng, 32768, 1.0)
	pos := make([]vec.V3, len(ics))
	mass := make([]float64, len(ics))
	for i := range ics {
		pos[i], mass[i] = ics[i].Pos, ics[i].Mass
	}
	tr, err := htree.Build(pos, mass, htree.Options{MaxLeaf: 16})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// treewalkParticles returns the particle set behind the tree-construction
// benchmarks.
func treewalkParticles() ([]vec.V3, []float64) {
	rng := rand.New(rand.NewSource(5))
	ics := core.PlummerSphere(rng, 32768, 1.0)
	pos := make([]vec.V3, len(ics))
	mass := make([]float64, len(ics))
	for i := range ics {
		pos[i], mass[i] = ics[i].Pos, ics[i].Mass
	}
	return pos, mass
}

// BenchmarkTreeBuildReference32k is the seed construction path: serial
// keying, comparison sort, and the map-backed recursive build.
func BenchmarkTreeBuildReference32k(b *testing.B) {
	pos, mass := treewalkParticles()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := htree.BuildReference(pos, mass, htree.Options{MaxLeaf: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeBuildPipeline32k is the parallel pipeline at one worker with
// a reused arena — the steady per-step rebuild cost. The allocs/op column
// against the reference benchmark shows the arena's effect.
func BenchmarkTreeBuildPipeline32k(b *testing.B) {
	pos, mass := treewalkParticles()
	ar := &htree.Arena{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := htree.Build(pos, mass, htree.Options{MaxLeaf: 16, Workers: 1, Arena: ar}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeBuildPipelineWorkers32k fans the build over every host core.
func BenchmarkTreeBuildPipelineWorkers32k(b *testing.B) {
	pos, mass := treewalkParticles()
	ar := &htree.Arena{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := htree.Build(pos, mass, htree.Options{MaxLeaf: 16, Workers: 0, Arena: ar}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeafBodies32k gathers every leaf's sources with the allocating
// accessor — the per-leaf garbage the walk used to produce.
func BenchmarkLeafBodies32k(b *testing.B) {
	tr := treewalkTree(b)
	leaves := tr.Leaves()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range leaves {
			tr.LeafBodies(c)
		}
	}
}

// BenchmarkAppendLeafBodies32k is the same gather through the scratch-reusing
// append accessor; allocs/op drops to zero once the buffer is warm.
func BenchmarkAppendLeafBodies32k(b *testing.B) {
	tr := treewalkTree(b)
	leaves := tr.Leaves()
	var scratch []gravity.Source
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range leaves {
			scratch = tr.AppendLeafBodies(scratch[:0], c)
		}
	}
}

// BenchmarkTreewalkPerBody32k is the seed engine: one tree walk per body.
func BenchmarkTreewalkPerBody32k(b *testing.B) {
	tr := treewalkTree(b)
	b.ResetTimer()
	var inter int
	for i := 0; i < b.N; i++ {
		_, _, st := tr.AccelAll(0.7, 0.01, false)
		inter = st.CellInteractions + st.BodyInteractions
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N*len(tr.Bodies))*1e9, "ns/body")
	b.ReportMetric(float64(b.N*inter)/b.Elapsed().Seconds()/1e6, "Minter/s")
}

// BenchmarkTreewalkGrouped32k is the bucket-grouped engine with batched
// kernels (single worker, so the speedup over the per-body benchmark is
// algorithmic, not parallelism).
func BenchmarkTreewalkGrouped32k(b *testing.B) {
	tr := treewalkTree(b)
	b.ResetTimer()
	var inter int
	for i := 0; i < b.N; i++ {
		_, _, st := tr.AccelAllGrouped(0.7, 0.01, false, gravity.Float64, 1)
		inter = st.CellInteractions + st.BodyInteractions
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N*len(tr.Bodies))*1e9, "ns/body")
	b.ReportMetric(float64(b.N*inter)/b.Elapsed().Seconds()/1e6, "Minter/s")
}

// BenchmarkTreewalkGroupedWorkers32k fans the grouped walk over every host
// core.
func BenchmarkTreewalkGroupedWorkers32k(b *testing.B) {
	tr := treewalkTree(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.AccelAllGrouped(0.7, 0.01, false, gravity.Float64, 0)
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N*len(tr.Bodies))*1e9, "ns/body")
}

// BenchmarkAblationKarpVsLibm contrasts the two kernel variants under the
// 2002 CPU model — the design choice Table 5 motivates.
func BenchmarkAblationKarpVsLibm(b *testing.B) {
	cpu := machine.SpaceSimulatorCPU
	var speedup float64
	for i := 0; i < b.N; i++ {
		speedup = cpu.KernelMflops(true) / cpu.KernelMflops(false)
	}
	b.ReportMetric(speedup, "karp-speedup-2002")
}

// BenchmarkAblationABMBatching measures the treecode with and without
// request batching (MaxBatchItems 1), the design choice behind the ABM
// layer.
func BenchmarkAblationABMBatching(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	ics := core.PlummerSphere(rng, 3000, 1.0)
	var batched float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.Run(core.RunConfig{
			Cluster: ss(), Procs: 8, Steps: 1,
			Opt: core.Options{Theta: 0.6, Eps: 0.02, DT: 1e-3},
		}, ics)
		batched = res.ElapsedVirtual
	}
	b.ReportMetric(batched, "virtual-s")
}
