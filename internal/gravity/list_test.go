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

// checkList evaluates the reference list (cells by pointer, bodies as segs)
// on a copy of s and requires the bits EvalListReference leaves on another.
func checkList(t *testing.T, label string, s *laneSinks, cells *MultipoleSoA, src *SoA, segs [][]Source, eps float64, karp bool) {
	t.Helper()
	got, want := s.clone(), s.clone()
	ev := Evaluator{Eps: eps, UseKarp: karp}
	ev.Eval(&List{Cells: cells.Refs(), Segs: segs}, got.sx, got.sy, got.sz, got.ax, got.ay, got.az, got.pp)
	EvalListReference(cells, src, want.sx, want.sy, want.sz, eps, karp, want.ax, want.ay, want.az, want.pp)
	g, w := got.outputs(), want.outputs()
	for c := range g {
		for j := range g[c] {
			if math.Float64bits(g[c][j]) != math.Float64bits(w[c][j]) {
				t.Fatalf("%s: output %d of sink %d/%d: list %v (%#x), reference %v (%#x)", label, c, j, len(g[c]),
					g[c][j], math.Float64bits(g[c][j]), w[c][j], math.Float64bits(w[c][j]))
			}
		}
	}
}

// A list by reference must evaluate to the bits of EvalListReference on the
// same rows — with either body of each kernel, either reciprocal square
// root, with and without softening, for every sink count around the lane
// width — however the body list is cut into segments: each sink's partial
// sums run across the cuts and meet its accumulators once, at the end.
func TestListEvalMatchesReference(t *testing.T) {
	const nb = 7
	for _, goLoops := range []bool{false, true} {
		if goLoops {
			defer ForceGoKernels()()
		}
		rng := rand.New(rand.NewSource(23))
		for _, eps := range []float64{0.05, 0} {
			for _, karp := range []bool{false, true} {
				for ns := 1; ns <= 9; ns++ {
					s := newLaneSinks(rng, ns)
					src, _ := randomSoA(rng, nb)
					cells := randomCells(rng, 5)
					// The bucket's own bodies are on its list: two sinks meet
					// themselves, on either side of a possible cut.
					src.rows[2].Pos = [3]float64{s.sx[0], s.sy[0], s.sz[0]}
					src.rows[3].Pos = [3]float64{s.sx[ns-1], s.sy[ns-1], s.sz[ns-1]}
					for cuts := uint(0); cuts < 1<<(nb-1); cuts++ {
						for _, empties := range []bool{false, true} {
							label := fmt.Sprintf("go=%v eps=%v karp=%v %d sinks cuts=%#b empties=%v", goLoops, eps, karp, ns, cuts, empties)
							checkList(t, label, s, cells, src, cutSegments(src.rows, cuts, empties), eps, karp)
						}
					}
				}
			}
		}
		// Long lists cut at random, down to no bodies and no cells at all.
		for _, n := range []int{0, 1, 33, 300} {
			src, _ := randomSoA(rng, n)
			cells := randomCells(rng, n/3)
			for _, ns := range []int{1, 4, 6, 9} {
				s := newLaneSinks(rng, ns)
				var segs [][]Source
				for lo := 0; lo < n; {
					hi := min(n, lo+rng.Intn(20)) // empty now and then
					segs = append(segs, src.rows[lo:hi])
					lo = hi
				}
				for _, karp := range []bool{false, true} {
					checkList(t, fmt.Sprintf("go=%v karp=%v %d sinks x %d random cuts", goLoops, karp, ns, n), s, cells, src, segs, 0.01, karp)
				}
			}
		}
	}
}
