package gravity

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// cutSegments cuts rows into segments after every index i whose bit is set
// in cuts, optionally with an empty segment before, between and after them.
func cutSegments(rows []Source, cuts uint, empties bool) [][]Source {
	var segs [][]Source
	add := func(seg []Source) {
		if empties {
			segs = append(segs, rows[:0])
		}
		segs = append(segs, seg)
	}
	lo := 0
	for i := range rows {
		if i == len(rows)-1 || cuts&(1<<uint(i)) != 0 {
			add(rows[lo : i+1])
			lo = i + 1
		}
	}
	if empties {
		segs = append(segs, nil)
	}
	return segs
}

// EvalListReference is the scalar evaluation — Multipole.AccelAt's
// arithmetic per (cell, sink), cell by cell, plus the Go body loop over the
// bodies as one segment — the oracle every body of the production kernels
// is pinned bit-identical against.
func EvalListReference(cells *MultipoleSoA, src *SoA, sx, sy, sz []float64, eps float64, ax, ay, az, pot []float64) {
	eps2 := eps * eps
	for ci := range cells.rows {
		m := &cells.rows[ci]
		for j := range sx {
			ax[j], ay[j], az[j], pot[j] = m.addField(sx[j], sy[j], sz[j], eps2, ax[j], ay[j], az[j], pot[j])
		}
	}
	bodyKernelGo([][]Source{src.rows}, sx, sy, sz, eps2, ax, ay, az, pot)
}

// checkList evaluates the reference list (cells by pointer, bodies as segs)
// on a copy of s and requires the bits EvalListReference leaves on another.
func checkList(t *testing.T, label string, s *laneSinks, cells *MultipoleSoA, src *SoA, segs [][]Source, eps float64) {
	t.Helper()
	got, want := s.clone(), s.clone()
	ev := Evaluator{Eps: eps}
	ev.Eval(&List{Cells: cells.Refs(), Segs: segs}, got.sx, got.sy, got.sz, got.ax, got.ay, got.az, got.pp)
	EvalListReference(cells, src, want.sx, want.sy, want.sz, eps, want.ax, want.ay, want.az, want.pp)
	g, w := got.outputs(), want.outputs()
	for c := range g {
		for j := range g[c] {
			if !sameBits(g[c][j], w[c][j]) {
				t.Fatalf("%s: output %d of sink %d/%d: list %v (%#x), reference %v (%#x)", label, c, j, len(g[c]),
					g[c][j], math.Float64bits(g[c][j]), w[c][j], math.Float64bits(w[c][j]))
			}
		}
	}
}

// A list by reference must evaluate to the bits of EvalListReference on the
// same rows — with every body of each kernel, with and without softening,
// for every sink count from one to past two eight-lane blocks — however the
// body list is cut into segments: each sink's partial sums run across the
// cuts and meet its accumulators once, at the end. One list has a pair
// whose r2+eps2 lies outside the reciprocal square root's range: its block
// must come back from the Go loop with the same bits.
func TestListEvalMatchesReference(t *testing.T) {
	const nb = 7
	EachISA(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		for _, eps := range []float64{0.05, 0} {
			for ns := 1; ns <= 17; ns++ {
				s := newLaneSinks(rng, ns)
				src, _ := randomSoA(rng, nb)
				cells := randomCells(rng, 5)
				// The bucket's own bodies are on its list: two sinks meet
				// themselves, on either side of a possible cut.
				src.rows[2].Pos = [3]float64{s.sx[0], s.sy[0], s.sz[0]}
				src.rows[3].Pos = [3]float64{s.sx[ns-1], s.sy[ns-1], s.sz[ns-1]}
				for cuts := uint(0); cuts < 1<<(nb-1); cuts++ {
					for _, empties := range []bool{false, true} {
						label := fmt.Sprintf("eps=%v %d sinks cuts=%#b empties=%v", eps, ns, cuts, empties)
						checkList(t, label, s, cells, src, cutSegments(src.rows, cuts, empties), eps)
					}
				}
				// One body and one cell 1e160 away: r2 overflows the range
				// for every sink.
				far, farCells := &SoA{rows: append([]Source(nil), src.rows...)}, &MultipoleSoA{rows: append([]Multipole(nil), cells.rows...)}
				far.rows[5].Pos[1] = 1e160
				farCells.rows[1].COM[2] = -1e160
				checkList(t, fmt.Sprintf("eps=%v %d sinks, pair out of range", eps, ns), s, farCells, far, cutSegments(far.rows, 0b1010, false), eps)
				// One sink 1e160 away: only its block leaves the assembly.
				lone := s.clone()
				lone.sx[ns/2] = 1e160
				checkList(t, fmt.Sprintf("eps=%v %d sinks, sink %d out of range", eps, ns, ns/2), lone, cells, src, oneSeg(src), eps)
			}
		}
		// Long lists cut at random, down to no bodies and no cells at all.
		for _, n := range []int{0, 1, 33, 300} {
			src, _ := randomSoA(rng, n)
			cells := randomCells(rng, n/3)
			for _, ns := range []int{1, 4, 6, 9, 13} {
				s := newLaneSinks(rng, ns)
				var segs [][]Source
				for lo := 0; lo < n; {
					hi := min(n, lo+rng.Intn(20)) // empty now and then
					segs = append(segs, src.rows[lo:hi])
					lo = hi
				}
				checkList(t, fmt.Sprintf("%d sinks x %d random cuts", ns, n), s, cells, src, segs, 0.01)
			}
		}
	})
}
