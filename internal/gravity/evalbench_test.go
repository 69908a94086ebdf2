package gravity

import (
	"fmt"
	"math/rand"
	"testing"

	"spacesim/internal/vec"
)

// benchLengths mirrors the ssbench kernels sweep so the Go benchmarks and
// the recorded BENCH_treecode.json kernels block measure the same regimes:
// a short leaf-sized list, an L1-resident list, and one that spills L1.
var benchLengths = []int{16, 256, 4096}

// randomCells builds n well-separated multipoles (8-body clusters far from
// the origin-centered sinks, so the quadrupole terms are well-conditioned).
func randomCells(rng *rand.Rand, n int) *MultipoleSoA {
	cells := &MultipoleSoA{}
	pos := make([]vec.V3, 8)
	mass := make([]float64, 8)
	for c := 0; c < n; c++ {
		center := vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Scale(20)
		for i := range pos {
			pos[i] = center.Add(vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Scale(0.1))
			mass[i] = rng.Float64() + 0.1
		}
		m := FromBodies(pos, mass)
		cells.Push(&m)
	}
	return cells
}

type benchState struct {
	cells                      *MultipoleSoA
	soa                        *SoA
	sx, sy, sz, ax, ay, az, pp []float64
}

func newBenchState(rng *rand.Rand, ncells, nbodies, nsinks int) *benchState {
	st := &benchState{cells: randomCells(rng, ncells)}
	st.soa, _ = randomSoA(rng, nbodies)
	st.sx = make([]float64, nsinks)
	st.sy = make([]float64, nsinks)
	st.sz = make([]float64, nsinks)
	st.ax = make([]float64, nsinks)
	st.ay = make([]float64, nsinks)
	st.az = make([]float64, nsinks)
	st.pp = make([]float64, nsinks)
	for i := 0; i < nsinks; i++ {
		st.sx[i], st.sy[i], st.sz[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
	}
	return st
}

func BenchmarkCellBatch(b *testing.B) {
	for _, n := range benchLengths {
		b.Run(fmt.Sprintf("libm/len%d", n), func(b *testing.B) {
			st := newBenchState(rand.New(rand.NewSource(5)), n, 0, benchSinks)
			refs := st.cells.Refs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cellKernelLibm(refs, st.sx, st.sy, st.sz, 1e-4, st.ax, st.ay, st.az, st.pp)
			}
			b.ReportMetric(float64(b.N*n*benchSinks)/b.Elapsed().Seconds()/1e6, "Minter/s")
		})
	}
}

// evalVariants are the Evaluator's two body kernels.
var evalVariants = []struct {
	name string
	karp bool
}{{"libm", false}, {"karp", true}}

func BenchmarkEvalList(b *testing.B) {
	for _, v := range evalVariants {
		for _, n := range benchLengths {
			b.Run(fmt.Sprintf("%s/len%d", v.name, n), func(b *testing.B) {
				// Split the list budget the way real buckets do: a few
				// accepted cells, the rest direct bodies.
				nc := n / 8
				st := newBenchState(rand.New(rand.NewSource(6)), nc, n-nc, benchSinks)
				ev := Evaluator{Eps: 0.01, UseKarp: v.karp}
				ev.EvalList(st.cells, st.soa, st.sx, st.sy, st.sz, st.ax, st.ay, st.az, st.pp)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ev.EvalList(st.cells, st.soa, st.sx, st.sy, st.sz, st.ax, st.ay, st.az, st.pp)
				}
				b.ReportMetric(float64(b.N*n*benchSinks)/b.Elapsed().Seconds()/1e6, "Minter/s")
			})
		}
	}
}

// The hot path must stay allocation-free: the batched kernels write into
// caller accumulators and the Evaluator holds no buffers of its own (the
// pointer list EvalList hands the cell kernel is the MultipoleSoA's).
func TestKernelAllocsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	st := newBenchState(rng, 48, 512, benchSinks)
	run := func(name string, f func()) {
		t.Helper()
		if allocs := testing.AllocsPerRun(10, f); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
	segs, refs := oneSeg(st.soa), st.cells.Refs()
	run("bodyKernelLibm", func() {
		bodyKernelLibm(segs, st.sx, st.sy, st.sz, 1e-4, st.ax, st.ay, st.az, st.pp)
	})
	run("bodyKernelKarp", func() {
		bodyKernelKarp(segs, st.sx, st.sy, st.sz, 1e-4, st.ax, st.ay, st.az, st.pp)
	})
	run("cellKernelLibm", func() {
		cellKernelLibm(refs, st.sx, st.sy, st.sz, 1e-4, st.ax, st.ay, st.az, st.pp)
	})
	for _, v := range evalVariants {
		ev := Evaluator{Eps: 0.01, UseKarp: v.karp}
		run("EvalList/"+v.name, func() {
			ev.EvalList(st.cells, st.soa, st.sx, st.sy, st.sz, st.ax, st.ay, st.az, st.pp)
		})
	}
}
