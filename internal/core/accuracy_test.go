package core

import (
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	"spacesim/internal/gravity"
	"spacesim/internal/htree"
	"spacesim/internal/mp"
	"spacesim/internal/vec"
)

// One rank used to do twice the interactions of eight on the same bodies at
// the same error, because the walks disagreed about leaves: htree's
// GatherList, which walks everything a rank owns, listed a leaf's bodies
// untested, while DTree.walk tested a remote leaf like any other cell. The
// more ranks, the more of the tree is remote and the more leaves are
// accepted. With one rule on every walk the rank count no longer decides the
// work; with local leaves untested again (htree.Grouping, at the production
// group size) the gap comes back.
func TestInteractionsIndependentOfRankCount(t *testing.T) {
	ics, err := MakeICs("plummer", 5, 8192)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Theta: 0.7, Eps: 0.01, MaxLeaf: 16}
	perBody := func() map[int]float64 {
		out := map[int]float64{}
		for _, p := range []int{1, 4, 8} {
			_, _, ints := forcesWithEngine(ics, p, opt, mp.RunOptions{})
			out[p] = float64(ints) / float64(len(ics))
		}
		return out
	}
	got := perBody()
	t.Logf("interactions per body on 1, 4, 8 ranks: %.0f, %.0f, %.0f", got[1], got[4], got[8])
	for _, p := range []int{4, 8} {
		if r := got[p] / got[1]; math.Abs(r-1) > 0.03 {
			t.Errorf("%d ranks do %.0f interactions per body, one rank %.0f: ratio %.3f, want within 3%%", p, got[p], got[1], r)
		}
	}

	restore := htree.Grouping(80, true)
	defer restore()
	old := perBody()
	t.Logf("local leaves untested: %.0f, %.0f, %.0f", old[1], old[4], old[8])
	if old[1] < 1.5*old[8] {
		t.Errorf("with local leaves untested one rank does %.0f interactions per body, eight %.0f: the gap this test explains is gone", old[1], old[8])
	}
}

// Above theta 1 a group's sphere can pass the MAC of a cell that contains
// the group — the root fill, on any body far enough out — and its sinks
// would then meet their own bodies through that multipole, not once as
// direct bodies, which is what finishBucket's ns·nb − ns counts. On three
// ranks at theta 2 every sink of every group finds its own body on its list
// exactly once: no fill that overlaps the group and no local cell that holds
// one of its bodies is accepted.
func TestOwnBodyOnceAtThetaTwo(t *testing.T) {
	ics, err := MakeICs("plummer", 11, 3000)
	if err != nil {
		t.Fatal(err)
	}
	const p = 3
	mp.Run(testCluster(), p, func(r *mp.Rank) {
		n := len(ics)
		lo, hi := n*r.ID()/p, n*(r.ID()+1)/p
		bodies, splitters, boxLo, boxSize := Decompose(r, append([]Body(nil), ics[lo:hi]...))
		dt := BuildDistributed(r, bodies, splitters, boxLo, boxSize, Options{Theta: 2, Eps: 0.01})
		_, _, st := dt.ComputeForces(bodies)
		if st.CellInteractions == 0 {
			t.Errorf("rank %d: theta 2 accepted no cell", r.ID())
		}
		src := dt.local.Sources()
		for _, g := range dt.local.Groups() {
			w := dt.walker(g)
			seen := map[*gravity.Source]int{}
			for _, seg := range dt.regather(&w).List.Segs {
				for j := range seg {
					seen[&seg[j]]++
				}
			}
			for i := g.Lo; i < g.Hi; i++ {
				if c := seen[&src[i]]; c != 1 {
					t.Errorf("rank %d: sink %d of group %v meets its own body %d times", r.ID(), i, g.Key, c)
					return
				}
			}
		}
	})
}

// quantile is the linear-interpolation quantile of sorted xs, q in [0, 1],
// as bench/ computes it.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// TestErrorCostTable prints the error–cost table of DESIGN.md §6 (ROADMAP
// item 4(b)): for each sink-group size and opening angle, the median, p99 and
// rms relative acceleration error against the scalar libm kernel at 2048
// sampled bodies — bench/'s force_err_* protocol — and the interactions per
// body, on bench/'s Plummer workloads (one and eight ranks) and its cold
// sphere on 64 ranks, seeds 1 and 2. It asserts nothing and prints 90 rows
// (about 15 s on two cores), so it runs only when asked for:
//
//	SPACESIM_TABLES=1 go test ./internal/core -run TestErrorCostTable -v
func TestErrorCostTable(t *testing.T) {
	if os.Getenv("SPACESIM_TABLES") == "" {
		t.Skip("prints a table; set SPACESIM_TABLES=1 to run it")
	}
	const n, samples = 32768, 2048
	fmt.Println("| workload | seed | groupMax | theta | median | p99 | rms | interactions/body |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for _, wl := range []struct {
		name, scenario string
		procs          int
	}{{"plummer-serial", "plummer", 1}, {"plummer-dist8", "plummer", 8}, {"coldsphere-dist64", "coldsphere", 64}} {
		for _, seed := range []int64{1, 2} {
			ics, err := MakeICs(wl.scenario, seed, n)
			if err != nil {
				t.Fatal(err)
			}
			src := make([]gravity.Source, n)
			for i, b := range ics {
				src[i] = gravity.Source{Pos: b.Pos, Mass: b.Mass}
			}
			const eps = 0.01
			ref := make([]vec.V3, samples)
			for k := range ref {
				ref[k], _ = gravity.KernelLibm(src[k*n/samples].Pos, src, eps*eps)
			}
			for _, gm := range []int{32, 64, 72, 80, 96} {
				for _, theta := range []float64{0.6, 0.7, 0.8} {
					restore := htree.Grouping(gm, false)
					acc, _, ints := forcesWithEngine(ics, wl.procs, Options{Theta: theta, Eps: eps, MaxLeaf: 16, Workers: 2}, mp.RunOptions{})
					restore()
					var num, den float64
					rel := make([]float64, 0, samples)
					for k := range ref {
						d2, r2 := acc[k*n/samples].Sub(ref[k]).Norm2(), ref[k].Norm2()
						num, den = num+d2, den+r2
						if r2 > 0 {
							rel = append(rel, math.Sqrt(d2/r2))
						}
					}
					sort.Float64s(rel)
					fmt.Printf("| %s | %d | %d | %.1f | %.3g | %.3g | %.3g | %.0f |\n", wl.name, seed, gm, theta,
						quantile(rel, 0.5), quantile(rel, 0.99), math.Sqrt(num/den), float64(ints)/n)
				}
			}
		}
	}
}
