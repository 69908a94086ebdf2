package gravity

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Lane-edge properties of the dispatching kernels: every body bodyKernel
// and cellKernel can choose (EachISA: the Go loop, four sinks per register,
// eight with a four-lane tail) must equal the Go loops bit for bit at every
// group boundary, with a self pair in any lane, with a pair outside the
// reciprocal square root's range, and with a poisoned sink confined to its
// own lane.

// laneSinks is one sink set with its accumulators. The slices are cut from
// longer arrays whose tails hold a sentinel, so a body that writes a padded
// lane back is caught even where the index would still be in capacity.
type laneSinks struct {
	sx, sy, sz, ax, ay, az, pp []float64
}

const (
	laneSlack    = 8
	laneSentinel = -12345.678
)

func newLaneSinks(rng *rand.Rand, n int) *laneSinks {
	mk := func(fill func() float64) []float64 {
		a := make([]float64, n+laneSlack)
		for i := range a {
			a[i] = laneSentinel
			if i < n {
				a[i] = fill()
			}
		}
		return a[:n]
	}
	// Accumulators start non-zero: the kernels add into what they find.
	return &laneSinks{
		sx: mk(rng.NormFloat64), sy: mk(rng.NormFloat64), sz: mk(rng.NormFloat64),
		ax: mk(rng.NormFloat64), ay: mk(rng.NormFloat64), az: mk(rng.NormFloat64), pp: mk(rng.NormFloat64),
	}
}

func (s *laneSinks) clone() *laneSinks {
	cp := func(a []float64) []float64 {
		return append([]float64(nil), a[:len(a)+laneSlack]...)[:len(a)]
	}
	return &laneSinks{cp(s.sx), cp(s.sy), cp(s.sz), cp(s.ax), cp(s.ay), cp(s.az), cp(s.pp)}
}

func (s *laneSinks) outputs() [4][]float64 { return [4][]float64{s.ax, s.ay, s.az, s.pp} }

// sameBits is bit equality, except that any NaN equals any NaN: which
// operand's payload and sign a NaN result inherits depends on operand
// order, which neither the compiler nor the assembly fixes.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// checkLanes runs the dispatching kernels on one copy of s and the Go loops
// on another and requires identical outputs and untouched slack. It returns
// the dispatched result.
func checkLanes(t *testing.T, label string, s *laneSinks, cells *MultipoleSoA, src *SoA, eps2 float64) *laneSinks {
	t.Helper()
	got, want := s.clone(), s.clone()
	if cells != nil {
		cellKernel(cells.Refs(), got.sx, got.sy, got.sz, eps2, got.ax, got.ay, got.az, got.pp)
		cellKernelGo(cells.Refs(), want.sx, want.sy, want.sz, eps2, want.ax, want.ay, want.az, want.pp)
	}
	if src != nil {
		bodyKernel(oneSeg(src), got.sx, got.sy, got.sz, eps2, got.ax, got.ay, got.az, got.pp)
		bodyKernelGo(oneSeg(src), want.sx, want.sy, want.sz, eps2, want.ax, want.ay, want.az, want.pp)
	}
	g, w := got.outputs(), want.outputs()
	for c := range g {
		for j := range g[c] {
			if !sameBits(g[c][j], w[c][j]) {
				t.Fatalf("%s: output %d of sink %d/%d: %s kernel %v (%#x), Go loop %v (%#x)", label, c, j, len(g[c]),
					KernelISA(), g[c][j], math.Float64bits(g[c][j]), w[c][j], math.Float64bits(w[c][j]))
			}
		}
		for _, v := range g[c][len(g[c]) : len(g[c])+laneSlack] {
			if v != laneSentinel {
				t.Fatalf("%s: output %d written past its %d sinks", label, c, len(g[c]))
			}
		}
	}
	return got
}

var (
	laneSinkCounts  = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65}
	laneListLengths = []int{0, 1, 2, 3, 4, 5, 17, 255, 256, 257, 1023, 1024, 1025, 3000}
)

func TestLanesMatchGoLoops(t *testing.T) {
	EachISA(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(19))
		for _, n := range laneListLengths {
			src, _ := randomSoA(rng, n)
			cells := randomCells(rng, n)
			for _, ns := range laneSinkCounts {
				s := newLaneSinks(rng, ns)
				checkLanes(t, fmt.Sprintf("bodies: %d sinks x %d", ns, n), s, nil, src, 1e-4)
				checkLanes(t, fmt.Sprintf("cells: %d sinks x %d", ns, n), s, cells, nil, 1e-4)
				checkLanes(t, fmt.Sprintf("list: %d sinks x %d", ns, n), s, cells, src, 1e-4)
			}
		}
	})
}

// A sink that is also a source — the bucket's own bodies are on its list —
// must drop out of its own sum in whichever lane it sits, also when it is
// listed twice and when two sinks coincide.
func TestLanesSelfPair(t *testing.T) {
	EachISA(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(20))
		for _, ns := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9} {
			s := newLaneSinks(rng, ns)
			if ns > 1 {
				s.sx[ns-1], s.sy[ns-1], s.sz[ns-1] = s.sx[0], s.sy[0], s.sz[0] // duplicate sinks
			}
			for lane := 0; lane < ns; lane++ {
				for _, twice := range []bool{false, true} {
					src, _ := randomSoA(rng, 21)
					src.rows[5].Pos = [3]float64{s.sx[lane], s.sy[lane], s.sz[lane]}
					if twice {
						src.rows[20].Pos = src.rows[5].Pos
					}
					label := fmt.Sprintf("%d sinks, self pair in lane %d, twice=%v", ns, lane, twice)
					got := checkLanes(t, label, s, nil, src, 1e-4)
					if !twice {
						continue
					}
					// Both images excluded, their masses cannot matter.
					src.rows[5].Mass *= 3
					src.rows[20].Mass *= 3
					again := checkLanes(t, label, s, nil, src, 1e-4)
					g, a := got.outputs(), again.outputs()
					for c := range g {
						if g[c][lane] != a[c][lane] {
							t.Fatalf("%s: output %d depends on the mass of the sink's own image", label, c)
						}
					}
				}
			}
		}
	})
}

// With eps == 0 the mass-zeroing exclusion would evaluate 0*Inf; that case
// must reach the checked Go loop and stay finite.
func TestLanesZeroSofteningTakesGoLoop(t *testing.T) {
	EachISA(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		s := newLaneSinks(rng, 7)
		src, _ := randomSoA(rng, 33)
		for j := range s.sx {
			src.Push([3]float64{s.sx[j], s.sy[j], s.sz[j]}, 0.5)
		}
		got := checkLanes(t, "eps = 0", s, nil, src, 0)
		for c, out := range got.outputs() {
			for j, v := range out {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("eps = 0: output %d of sink %d is %v", c, j, v)
				}
			}
		}
	})
}

// A non-finite, signed-zero, subnormal or huge coordinate in one sink stays
// in that sink's lane: every other sink's result keeps the bits it has
// without the poison. Special values in a source or a cell reach every lane
// alike and only have to match the Go loops.
func TestLanesSpecialValuesStayInLane(t *testing.T) {
	EachISA(t, func(t *testing.T) {
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
			5e-324, -2.5e-310, 1e150, -1e150, 1e-150}
		rng := rand.New(rand.NewSource(22))
		src, _ := randomSoA(rng, 40)
		cells := randomCells(rng, 24)
		for _, ns := range []int{4, 7, 9} {
			s := newLaneSinks(rng, ns)
			clean := checkLanes(t, "clean", s, cells, src, 1e-4).outputs()
			for lane := 0; lane < ns; lane++ {
				for _, v := range specials {
					for coord := 0; coord < 3; coord++ {
						p := s.clone()
						[3][]float64{p.sx, p.sy, p.sz}[coord][lane] = v
						label := fmt.Sprintf("%d sinks, coordinate %d of sink %d = %v", ns, coord, lane, v)
						got := checkLanes(t, label, p, cells, src, 1e-4).outputs()
						for c := range got {
							for j := range got[c] {
								if j != lane && math.Float64bits(got[c][j]) != math.Float64bits(clean[c][j]) {
									t.Fatalf("%s: leaked into output %d of sink %d", label, c, j)
								}
							}
						}
					}
				}
			}
			for _, v := range specials {
				ps := &SoA{rows: append([]Source(nil), src.rows...)}
				ps.rows[7].Pos[0] = v
				checkLanes(t, fmt.Sprintf("%d sinks, source x = %v", ns, v), s, nil, ps, 1e-4)
				ps.rows[7].Pos[0], ps.rows[7].Mass = src.rows[7].Pos[0], v
				checkLanes(t, fmt.Sprintf("%d sinks, source mass = %v", ns, v), s, nil, ps, 1e-4)
				pc := &MultipoleSoA{rows: append([]Multipole(nil), cells.rows...)}
				pc.rows[3].M, pc.rows[11].Q[3] = v, v
				checkLanes(t, fmt.Sprintf("%d sinks, cell mass and qxy = %v", ns, v), s, pc, nil, 1e-4)
			}
		}
	})
}
