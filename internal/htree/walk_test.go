package htree

import (
	"math"
	"math/rand"
	"testing"

	"spacesim/internal/gravity"
	"spacesim/internal/key"
	"spacesim/internal/vec"
)

// gatherByKey is the bucket walk as it was before cells carried daughter
// links: every cell, the root included, is reached by its key through the
// hash table and daughters are named by key arithmetic. It returns what the
// walk emits, in order: the accepted cells — leaves included, none the test
// owns — and the body range of each leaf not accepted.
func gatherByKey(t *Tree, root key.K, mac *BucketMAC) (cells []*Cell, ranges [][2]int, opened int) {
	stack := []key.K{root}
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := t.store.get(k)
		switch {
		case !mac.Owns(c.Lo, c.Hi) && mac.Exact(&c.Mp.COM, c.Bmax):
			cells = append(cells, c)
		case c.Leaf:
			ranges = append(ranges, [2]int{c.Lo, c.Hi})
		default:
			opened++
			for oct := 0; oct < 8; oct++ {
				if c.ChildMask&(1<<uint(oct)) != 0 {
					stack = append(stack, k.Child(oct))
				}
			}
		}
	}
	return cells, ranges, opened
}

// The walk by slab position emits the cells and body ranges of the walk by
// key, in the same order, as references into the tree itself — on built
// and reference trees, on force-split trees with their one-body leaves, and
// from roots below the top, for groups that own a leaf.
func TestIndexWalkMatchesKeyWalk(t *testing.T) {
	pos, mass := plummerBodies(5000, 31)
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"build", Options{MaxLeaf: 8}},
		{"force-split", Options{MaxLeaf: 8, ForceSplit: func(k key.K) bool { return k.Level() < 4 }}},
		{"reference", Options{MaxLeaf: 8}},
	} {
		build := Build
		if tc.name == "reference" {
			build = BuildReference
		}
		tr, err := build(pos, mass, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		roots := []key.K{key.Root}
		for oct := 0; oct < 8; oct++ {
			if c, ok := tr.Cell(key.Root.Child(oct)); ok && !c.Leaf {
				roots = append(roots, c.Key)
			}
		}
		var list BucketScratch
		leaves := tr.Leaves()
		for bi := 0; bi < len(leaves); bi += 7 {
			b := leaves[bi]
			mac := NewGroupMAC(b, 0.7)
			for _, root := range roots {
				wantCells, wantRanges, wantOpened := gatherByKey(tr, root, &mac)
				list.Reset()
				if got := tr.GatherList(root, &mac, &list); got != wantOpened {
					t.Fatalf("%s: bucket %v from %v: opened %d cells, by key %d", tc.name, b.Key, root, got, wantOpened)
				}
				l := &list.List
				if len(l.Cells) != len(wantCells) || len(l.Segs) != len(wantRanges) {
					t.Fatalf("%s: bucket %v from %v: %d cells + %d segments, by key %d + %d",
						tc.name, b.Key, root, len(l.Cells), len(l.Segs), len(wantCells), len(wantRanges))
				}
				for i, m := range l.Cells {
					if m != &wantCells[i].Mp {
						t.Fatalf("%s: bucket %v from %v: cell %d is not the multipole of %v", tc.name, b.Key, root, i, wantCells[i].Key)
					}
				}
				for i, seg := range l.Segs {
					lo, hi := wantRanges[i][0], wantRanges[i][1]
					if len(seg) != hi-lo || &seg[0] != &tr.src[lo] {
						t.Fatalf("%s: bucket %v from %v: segment %d is not bodies [%d,%d)", tc.name, b.Key, root, i, lo, hi)
					}
				}
			}
		}
	}
}

// scaled returns the system blown up by 2^k: lengths by 2^k, masses by
// 2^3k, which leaves every velocity scale (GM/r) times 2^2k.
func scaled(pos []vec.V3, mass []float64, k int) ([]vec.V3, []float64) {
	sp, sm := make([]vec.V3, len(pos)), make([]float64, len(mass))
	for i := range pos {
		sp[i] = pos[i].Scale(math.Ldexp(1, k))
		sm[i] = math.Ldexp(mass[i], 3*k)
	}
	return sp, sm
}

// Multiplying by a power of two is exact, so a system scaled by 2^k in
// length (softening included) and 2^3k in mass goes through the same keys,
// the same MAC decisions, the same lists and the same roundings: every
// acceleration comes out times exactly 2^k and every potential times 2^2k.
// No reference solution is needed, and no digest can stand in for it.
func TestGroupedForcesScaleExactly(t *testing.T) {
	pos, mass := randomBodies(rand.New(rand.NewSource(51)), 3000)
	const theta, eps = 0.7, 0.01
	tr, err := Build(pos, mass, Options{MaxLeaf: 16})
	if err != nil {
		t.Fatal(err)
	}
	acc, pot, st := tr.AccelAllGrouped(theta, eps, false, gravity.Float64, 2)
	for _, k := range []int{-7, 3, 20} {
		sp, sm := scaled(pos, mass, k)
		str, err := Build(sp, sm, Options{MaxLeaf: 16})
		if err != nil {
			t.Fatal(err)
		}
		sacc, spot, sst := str.AccelAllGrouped(theta, math.Ldexp(eps, k), false, gravity.Float64, 2)
		if sst != st {
			t.Fatalf("k=%d: walk stats %+v, unscaled %+v", k, sst, st)
		}
		for i := range acc {
			if sacc[i] != acc[i].Scale(math.Ldexp(1, k)) || spot[i] != math.Ldexp(pot[i], 2*k) {
				t.Fatalf("k=%d: body %d: (%v, %v), want exactly 2^k x %v and 2^2k x %v", k, i, sacc[i], spot[i], acc[i], pot[i])
			}
		}
	}
}

// The order the caller hands the bodies in decides nothing: the tree sorts
// them by key, so a permuted input yields every body's force bit for bit.
func TestGroupedForcesIgnoreInputOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	pos, mass := randomBodies(rng, 3000)
	const theta, eps = 0.7, 0.01
	tr, err := Build(pos, mass, Options{MaxLeaf: 16})
	if err != nil {
		t.Fatal(err)
	}
	acc, pot, _ := tr.AccelAllGrouped(theta, eps, false, gravity.Float64, 2)
	perm := rng.Perm(len(pos))
	ppos, pmass := make([]vec.V3, len(pos)), make([]float64, len(pos))
	for i, j := range perm {
		ppos[i], pmass[i] = pos[j], mass[j]
	}
	ptr, err := Build(ppos, pmass, Options{MaxLeaf: 16})
	if err != nil {
		t.Fatal(err)
	}
	pacc, ppot, _ := ptr.AccelAllGrouped(theta, eps, false, gravity.Float64, 2)
	for i, j := range perm {
		if pacc[i] != acc[j] || ppot[i] != pot[j] {
			t.Fatalf("body %d (handed in at %d): (%v, %v), in the original order (%v, %v)", j, i, pacc[i], ppot[i], acc[j], pot[j])
		}
	}
}
