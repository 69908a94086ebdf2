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

// eachBenchISA runs f as one sub-benchmark per kernel body the CPU has.
func eachBenchISA(b *testing.B, f func(b *testing.B)) {
	defer func() { kernelLanes = detectedLanes }()
	for _, lanes := range []int{0, 4, 8} {
		if lanes > detectedLanes {
			break
		}
		kernelLanes = lanes
		b.Run(KernelISA(), f)
	}
}

func BenchmarkCellBatch(b *testing.B) {
	for _, n := range benchLengths {
		st := newBenchState(rand.New(rand.NewSource(5)), n, 0, benchSinks)
		refs := st.cells.Refs()
		b.Run(fmt.Sprintf("len%d", n), func(b *testing.B) {
			eachBenchISA(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cellKernel(refs, st.sx, st.sy, st.sz, 1e-4, st.ax, st.ay, st.az, st.pp)
				}
				b.ReportMetric(float64(b.N*n*benchSinks)/b.Elapsed().Seconds()/1e6, "Minter/s")
			})
		})
	}
}

func BenchmarkEvalList(b *testing.B) {
	for _, n := range benchLengths {
		// Split the list budget the way real buckets do: a few accepted
		// cells, the rest direct bodies.
		nc := n / 8
		st := newBenchState(rand.New(rand.NewSource(6)), nc, n-nc, benchSinks)
		ev := Evaluator{Eps: 0.01}
		b.Run(fmt.Sprintf("len%d", n), func(b *testing.B) {
			eachBenchISA(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ev.EvalList(st.cells, st.soa, st.sx, st.sy, st.sz, st.ax, st.ay, st.az, st.pp)
				}
				b.ReportMetric(float64(b.N*n*benchSinks)/b.Elapsed().Seconds()/1e6, "Minter/s")
			})
		})
	}
}

// The hot path must stay allocation-free at every width: the batched kernels
// write into caller accumulators, the lanes block lives on the stack, and
// the Evaluator holds no buffers of its own (the pointer list EvalList hands
// the cell kernel is the MultipoleSoA's).
func TestKernelAllocsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	st := newBenchState(rng, 48, 512, benchSinks-3) // an eight-lane block, then a four-lane tail
	segs, refs := oneSeg(st.soa), st.cells.Refs()
	ev := Evaluator{Eps: 0.01}
	EachISA(t, func(t *testing.T) {
		for name, f := range map[string]func(){
			"bodyKernel": func() { bodyKernel(segs, st.sx, st.sy, st.sz, 1e-4, st.ax, st.ay, st.az, st.pp) },
			"cellKernel": func() { cellKernel(refs, st.sx, st.sy, st.sz, 1e-4, st.ax, st.ay, st.az, st.pp) },
			"EvalList":   func() { ev.EvalList(st.cells, st.soa, st.sx, st.sy, st.sz, st.ax, st.ay, st.az, st.pp) },
		} {
			if allocs := testing.AllocsPerRun(10, f); allocs != 0 {
				t.Errorf("%s: %v allocs/op, want 0", name, allocs)
			}
		}
	})
}
