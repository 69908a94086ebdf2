package gravity

import (
	"math"
	"math/rand"
	"testing"

	"spacesim/internal/vec"
)

func randomSoA(rng *rand.Rand, n int) (*SoA, []Source) {
	s := &SoA{}
	src := make([]Source, n)
	for i := 0; i < n; i++ {
		p := vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		m := rng.Float64() + 0.1
		src[i] = Source{Pos: p, Mass: m}
		s.Push(p, m)
	}
	return s, src
}

// oneSeg is the list as the body kernels take it, uncut.
func oneSeg(s *SoA) [][]Source { return [][]Source{s.rows} }

// The batched kernel and the scalar micro-kernel of Table 5 sum the same
// terms in the same order with two different reciprocal square roots (Newton
// iteration within 2 ulp, math.Sqrt then a divide within 1), so they agree
// sink by sink to rounding.
func TestKernelBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	soa, src := randomSoA(rng, 100)
	const ns = 17
	sx := make([]float64, ns)
	sy := make([]float64, ns)
	sz := make([]float64, ns)
	sinks := make([]vec.V3, ns)
	for j := 0; j < ns; j++ {
		sinks[j] = vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		sx[j], sy[j], sz[j] = sinks[j][0], sinks[j][1], sinks[j][2]
	}
	eps2 := 0.01
	ax := make([]float64, ns)
	ay := make([]float64, ns)
	az := make([]float64, ns)
	pp := make([]float64, ns)
	bodyKernel(oneSeg(soa), sx, sy, sz, eps2, ax, ay, az, pp)
	for j := 0; j < ns; j++ {
		want, wantP := KernelLibm(sinks[j], src, eps2)
		got := vec.V3{ax[j], ay[j], az[j]}
		if got.Sub(want).Norm() > 1e-13*want.Norm() || math.Abs(pp[j]-wantP) > 1e-13*math.Abs(wantP) {
			t.Fatalf("sink %d: batch (%v, %v) vs scalar (%v, %v)", j, got, pp[j], want, wantP)
		}
	}
}

// A sink colocated with a source must not interact with it (the bucket
// self-term), while the scalar kernel would include the eps-softened term.
func TestKernelBatchSkipsSelf(t *testing.T) {
	soa := &SoA{}
	self := vec.V3{0.5, -0.25, 1}
	soa.Push(self, 2.0)
	soa.Push(vec.V3{2, 0, 0}, 1.0)
	sx := []float64{self[0]}
	sy := []float64{self[1]}
	sz := []float64{self[2]}
	ax := []float64{0}
	ay := []float64{0}
	az := []float64{0}
	pp := []float64{0}
	bodyKernel(oneSeg(soa), sx, sy, sz, 0.01, ax, ay, az, pp)
	other := []Source{{Pos: vec.V3{2, 0, 0}, Mass: 1.0}}
	want, wantP := KernelLibm(self, other, 0.01)
	if got := (vec.V3{ax[0], ay[0], az[0]}); got.Sub(want).Norm() > 1e-15*want.Norm() || math.Abs(pp[0]-wantP) > 1e-15*math.Abs(wantP) {
		t.Fatalf("self term not skipped: got (%v, %v) want (%v, %v)", got, pp[0], want, wantP)
	}
}

// Sort must order the list canonically and preserve the particle multiset.
func TestSoASort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	soa, src := randomSoA(rng, 257)
	// add duplicates to exercise tie-breaking
	soa.Push(src[0].Pos, src[0].Mass)
	soa.Push(src[1].Pos, src[1].Mass-0.05)
	soa.Sort()
	n := soa.Len()
	if n != 259 {
		t.Fatalf("length changed: %d", n)
	}
	var mass float64
	for i := 0; i < n; i++ {
		mass += soa.rows[i].Mass
		if i == 0 {
			continue
		}
		if lessSources(&soa.rows[i], &soa.rows[i-1]) {
			t.Fatalf("not sorted at %d", i)
		}
	}
	var want float64
	for _, s := range src {
		want += s.Mass
	}
	want += src[0].Mass + src[1].Mass - 0.05
	if math.Abs(mass-want) > 1e-12*math.Abs(want) {
		t.Fatalf("mass multiset changed: %v vs %v", mass, want)
	}
	// Sorting twice (or sorting a shuffled copy) gives the same order.
	perm := &SoA{}
	order := rng.Perm(n)
	for _, i := range order {
		perm.Push(soa.rows[i].Pos, soa.rows[i].Mass)
	}
	perm.Sort()
	for i := 0; i < n; i++ {
		if perm.rows[i] != soa.rows[i] {
			t.Fatalf("canonical order differs at %d", i)
		}
	}
}

// Evaluator.EvalList = accepted cells + batched bodies, against a
// hand-rolled sum.
func TestEvalList(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	soa, src := randomSoA(rng, 40)
	cellsrc := make([][]vec.V3, 2)
	cellmass := make([][]float64, 2)
	cells := make([]Multipole, 2)
	var csoa MultipoleSoA
	for c := range cells {
		np := 20
		cellsrc[c] = make([]vec.V3, np)
		cellmass[c] = make([]float64, np)
		for i := 0; i < np; i++ {
			cellsrc[c][i] = vec.V3{10 + rng.Float64(), float64(5 * c), 0}
			cellmass[c][i] = rng.Float64()
		}
		cells[c] = FromBodies(cellsrc[c], cellmass[c])
		csoa.Push(&cells[c])
	}
	sink := vec.V3{0.1, 0.2, 0.3}
	sx := []float64{sink[0]}
	sy := []float64{sink[1]}
	sz := []float64{sink[2]}
	ax := []float64{0}
	ay := []float64{0}
	az := []float64{0}
	pp := []float64{0}
	eps := 0.05
	ev := Evaluator{Eps: eps}
	ev.EvalList(&csoa, soa, sx, sy, sz, ax, ay, az, pp)

	var want vec.V3
	var wantP float64
	for c := range cells {
		a, p := cells[c].AccelAt(sink, eps)
		want = want.Add(a)
		wantP += p
	}
	a, p := KernelLibm(sink, src, eps*eps)
	want = want.Add(a)
	wantP += p
	got := vec.V3{ax[0], ay[0], az[0]}
	if got.Sub(want).Norm() > 1e-12*(1+want.Norm()) || math.Abs(pp[0]-wantP) > 1e-12*(1+math.Abs(wantP)) {
		t.Fatalf("EvalList (%v, %v) vs reference (%v, %v)", got, pp[0], want, wantP)
	}
}

func BenchmarkKernelScalarLibm(b *testing.B) { benchScalar(b, false) }
func BenchmarkKernelScalarKarp(b *testing.B) { benchScalar(b, true) }

const benchSrc = 512
const benchSinks = 16

func benchScalar(b *testing.B, karp bool) {
	rng := rand.New(rand.NewSource(4))
	_, src := randomSoA(rng, benchSrc)
	sinks := make([]vec.V3, benchSinks)
	for i := range sinks {
		sinks[i] = vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sinks {
			if karp {
				KernelKarp(s, src, 1e-4)
			} else {
				KernelLibm(s, src, 1e-4)
			}
		}
	}
	b.ReportMetric(float64(b.N*benchSrc*benchSinks)/b.Elapsed().Seconds()/1e6, "Minter/s")
}

// BenchmarkKernelBatch is the production body kernel at each width the CPU
// has, against the scalar Table 5 kernels above.
func BenchmarkKernelBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	st := newBenchState(rng, 0, benchSrc, benchSinks)
	segs := oneSeg(st.soa)
	eachBenchISA(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bodyKernel(segs, st.sx, st.sy, st.sz, 1e-4, st.ax, st.ay, st.az, st.pp)
		}
		b.ReportMetric(float64(b.N*benchSrc*benchSinks)/b.Elapsed().Seconds()/1e6, "Minter/s")
	})
}
