package htree

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"spacesim/internal/gravity"
	"spacesim/internal/key"
	"spacesim/internal/vec"
)

func randomBodies(rng *rand.Rand, n int) ([]vec.V3, []float64) {
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i := range pos {
		pos[i] = vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		mass[i] = rng.Float64() + 0.1
	}
	return pos, mass
}

// Leaves must tile the body array with ascending, adjacent ranges.
func TestLeavesPartitionBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	pos, mass := randomBodies(rng, 777)
	tr, err := Build(pos, mass, Options{MaxLeaf: 8})
	if err != nil {
		t.Fatal(err)
	}
	leaves := tr.Leaves()
	next := 0
	for i, c := range leaves {
		if !c.Leaf {
			t.Fatalf("leaf %d is not a leaf", i)
		}
		if c.Lo != next {
			t.Fatalf("leaf %d starts at %d, want %d (not contiguous)", i, c.Lo, next)
		}
		if c.Hi <= c.Lo {
			t.Fatalf("leaf %d has empty range [%d,%d)", i, c.Lo, c.Hi)
		}
		next = c.Hi
	}
	if next != len(tr.Bodies) {
		t.Fatalf("leaves cover %d of %d bodies", next, len(tr.Bodies))
	}
}

// The bucket MAC widens the opening radius by the bucket's Bmax, so the
// grouped walk is at least as conservative as the per-body walk: its force
// error versus direct summation must stay within the per-body error regime.
func TestGroupedMatchesPerBodyWithinMACBound(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n = 1500
	pos, mass := randomBodies(rng, n)
	tr, err := Build(pos, mass, Options{MaxLeaf: 8})
	if err != nil {
		t.Fatal(err)
	}
	eps := 0.02
	ref, _ := gravity.Direct(pos, mass, eps)
	for _, theta := range []float64{0.4, 0.7, 1.0} {
		accP, potP, stP := tr.AccelAll(theta, eps)
		accG, potG, stG := tr.AccelAllGrouped(theta, eps, false, gravity.Float64, 0)
		rmsP := rmsErr(accP, ref)
		rmsG := rmsErr(accG, ref)
		if rmsG > rmsP*1.05+1e-12 {
			t.Fatalf("theta=%v: grouped rms error %g exceeds per-body %g", theta, rmsG, rmsP)
		}
		// Grouped and per-body agree with each other at the MAC error level.
		if d := rmsErr(accG, accP); d > 2*rmsP+1e-12 {
			t.Fatalf("theta=%v: grouped vs per-body rms %g (per-body vs direct %g)", theta, d, rmsP)
		}
		for i := range potP {
			if relDiff(potG[i], potP[i]) > 10*theta*theta*theta {
				t.Fatalf("theta=%v: potential %d: %v vs %v", theta, i, potG[i], potP[i])
			}
		}
		if stG.BodyInteractions <= 0 || stG.CellInteractions <= 0 {
			t.Fatalf("theta=%v: missing grouped stats %+v", theta, stG)
		}
		// The grouped MAC opens no fewer cells per unique walk, but walks
		// once per bucket, so total opened cells must drop sharply.
		if stG.CellsOpened >= stP.CellsOpened/2 {
			t.Fatalf("theta=%v: grouped opened %d cells, per-body %d — grouping not amortizing", theta, stG.CellsOpened, stP.CellsOpened)
		}
	}
}

// At theta 0 no cell is ever accepted (bmax/0 is +Inf, or NaN for a one-body
// leaf), both engines visit leaves in the same depth-first order, and the
// grouped result must be bit-identical to the per-body result.
func TestGroupedExactAtThetaZero(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pos, mass := randomBodies(rng, 400)
	tr, err := Build(pos, mass, Options{MaxLeaf: 8})
	if err != nil {
		t.Fatal(err)
	}
	eps := 0.05
	accP, potP, _ := tr.AccelAll(0, eps)
	accG, potG, stG := tr.AccelAllGrouped(0, eps, false, gravity.Float64, 1)
	if stG.CellInteractions != 0 {
		t.Fatalf("theta 0: grouped walk accepted %d cell interactions", stG.CellInteractions)
	}
	for i := range accP {
		if accG[i] != accP[i] || potG[i] != potP[i] {
			t.Fatalf("body %d: grouped (%v, %v) vs per-body (%v, %v)", i, accG[i], potG[i], accP[i], potP[i])
		}
	}
}

// Results must be bit-identical for every worker count.
func TestGroupedWorkerCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pos, mass := randomBodies(rng, 1000)
	tr, err := Build(pos, mass, Options{MaxLeaf: 8})
	if err != nil {
		t.Fatal(err)
	}
	acc1, pot1, st1 := tr.AccelAllGrouped(0.7, 0.02, true, gravity.Float64, 1)
	for _, workers := range []int{2, 3, 8, 0} {
		accN, potN, stN := tr.AccelAllGrouped(0.7, 0.02, true, gravity.Float64, workers)
		for i := range acc1 {
			if accN[i] != acc1[i] || potN[i] != pot1[i] {
				t.Fatalf("workers=%d: body %d differs: (%v, %v) vs (%v, %v)", workers, i, accN[i], potN[i], acc1[i], pot1[i])
			}
		}
		if stN != st1 {
			t.Fatalf("workers=%d: stats differ: %+v vs %+v", workers, stN, st1)
		}
	}
}

// groupTrees are the trees the sink-group contract is checked on, at two
// bucket sizes: a Plummer-like cluster with coincident pairs, a cold uniform
// sphere, and a Gaussian blob with a pile of coincident bodies larger than
// groupMax (one leaf above both MaxLeaf and groupMax, at MaxLevel).
func groupTrees(t *testing.T) map[string]*Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(25))
	sets := map[string][]vec.V3{}
	sets["plummer"], _ = plummerBodies(3000, 26)
	sphere := make([]vec.V3, 3000)
	for i := range sphere {
		for {
			p := vec.V3{2*rng.Float64() - 1, 2*rng.Float64() - 1, 2*rng.Float64() - 1}
			if p.Norm2() <= 1 {
				sphere[i] = p
				break
			}
		}
	}
	sets["coldsphere"] = sphere
	pile, _ := randomBodies(rng, 600)
	for i := 0; i < 100; i++ {
		pile = append(pile, vec.V3{0.25, -0.5, 0.125})
	}
	sets["pile"] = pile
	trees := map[string]*Tree{}
	for _, name := range []string{"plummer", "coldsphere", "pile"} {
		pos := sets[name]
		mass := make([]float64, len(pos))
		for i := range mass {
			mass[i] = 1 + 0.5*rng.Float64()
		}
		for _, maxLeaf := range []int{8, 16} {
			tr, err := Build(pos, mass, Options{MaxLeaf: maxLeaf, Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("%s/%d: %v", name, maxLeaf, err)
			}
			trees[fmt.Sprintf("%s/%d", name, maxLeaf)] = tr
		}
	}
	return trees
}

// The sink-group contract. Groups tile the bodies in ascending, adjacent
// ranges; each is the largest cell of at most groupMax bodies, or a leaf
// holding more. Every cell on a group's list passes the per-body MAC for
// every sink of the group (the triangle inequality behind the group's
// bounding sphere; 1e-12 is room for rounding), so the per-body error bound
// holds. And each sink finds its own body on the list exactly once, as a
// direct body, so a group of ns sinks and nb listed bodies does ns·nb − ns
// body interactions — at every theta: above 1 the group's sphere can pass the
// MAC of a cell that contains it, and only the test's Owns keeps such a cell
// off the list.
func TestGroupMACContract(t *testing.T) {
	for name, tr := range groupTrees(t) {
		owner := map[*gravity.Multipole]*Cell{}
		leafAt := map[*gravity.Source]*Cell{} // a segment is one leaf's bodies
		for i := range tr.store.cells {
			c := &tr.store.cells[i]
			owner[&c.Mp] = c
			if c.Leaf {
				leafAt[&tr.src[c.Lo]] = c
			}
		}
		at, bigLeaf := 0, false
		var sc BucketScratch
		for _, g := range tr.Groups() {
			if g.Lo != at || g.Hi <= g.Lo || g.N != g.Hi-g.Lo {
				t.Fatalf("%s: group %v covers [%d,%d) of %d bodies, want to start at %d", name, g.Key, g.Lo, g.Hi, g.N, at)
			}
			at = g.Hi
			if g.N > groupMax && !g.Leaf {
				t.Fatalf("%s: group %v holds %d bodies and is not a leaf", name, g.Key, g.N)
			}
			bigLeaf = bigLeaf || g.N > groupMax
			if p, ok := tr.Cell(g.Key.Parent()); g.Key != key.Root && (!ok || p.N <= groupMax) {
				t.Fatalf("%s: group %v is not the largest cell of at most %d bodies", name, g.Key, groupMax)
			}
			for _, theta := range []float64{0.4, 0.7, 1, 1.5, 2} {
				mac := NewGroupMAC(g, theta)
				sc.Reset()
				tr.GatherList(key.Root, &mac, &sc)
				for _, m := range sc.List.Cells {
					c := owner[m]
					for i := g.Lo; i < g.Hi; i++ {
						if d := tr.Bodies[i].Pos.Dist(c.Mp.COM); !AcceptMAC(d*(1+1e-12), c.Bmax, theta) {
							t.Fatalf("%s: theta %v: cell %v on group %v's list fails the MAC of its body %d (d %v, bmax %v)",
								name, theta, c.Key, g.Key, i, d, c.Bmax)
						}
					}
				}
				seen := make([]int, g.Hi-g.Lo)
				for _, seg := range sc.List.Segs {
					l := leafAt[&seg[0]]
					for i := max(l.Lo, g.Lo); i < min(l.Hi, g.Hi); i++ {
						seen[i-g.Lo]++
					}
				}
				for j, n := range seen {
					if n != 1 {
						t.Fatalf("%s: theta %v: sink %d of group %v is on its list %d times", name, theta, g.Lo+j, g.Key, n)
					}
				}
			}
		}
		if at != len(tr.Bodies) {
			t.Fatalf("%s: groups cover %d of %d bodies", name, at, len(tr.Bodies))
		}
		if strings.HasPrefix(name, "pile") != bigLeaf {
			t.Fatalf("%s: a leaf above groupMax is a group: %v", name, bigLeaf)
		}
	}
}

func rmsErr(got, ref []vec.V3) float64 {
	var sum2, ref2 float64
	for i := range ref {
		sum2 += got[i].Sub(ref[i]).Norm2()
		ref2 += ref[i].Norm2()
	}
	return math.Sqrt(sum2 / ref2)
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Max(math.Abs(a), math.Abs(b)))
}
