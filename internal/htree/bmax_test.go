package htree

import (
	"math"
	"math/rand"
	"testing"

	"spacesim/internal/key"
	"spacesim/internal/vec"
)

// maxDist2Sqrt is the oracle of every Bmax: the farthest of the bodies from
// a point, by a scan of squared distances rooted once.
func maxDist2Sqrt(from vec.V3, bodies []Body) float64 {
	m := 0.0
	for i := range bodies {
		if d2 := bodies[i].Pos.Sub(from).Norm2(); d2 > m {
			m = d2
		}
	}
	return math.Sqrt(m)
}

// checkBmaxExact holds every cell's Bmax to a scan of its whole body range,
// bit for bit.
func checkBmaxExact(t *testing.T, label string, tr *Tree) {
	t.Helper()
	for i := range tr.store.cells {
		c := &tr.store.cells[i]
		if want := maxDist2Sqrt(c.Mp.COM, tr.Bodies[c.Lo:c.Hi]); math.Float64bits(c.Bmax) != math.Float64bits(want) {
			t.Fatalf("%s: cell %v (%d bodies) Bmax %v, scan %v", label, c.Key, c.N, c.Bmax, want)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// atScale is pos times 2^k, exactly.
func atScale(pos []vec.V3, k int) []vec.V3 {
	sp := make([]vec.V3, len(pos))
	for i, p := range pos {
		sp[i] = p.Scale(math.Ldexp(1, k))
	}
	return sp
}

// TestBmaxExact checks that pruning the Bmax scan by daughter bounds finds
// exactly the farthest body of every cell, over the body sets whose bounds
// are tight, loose or degenerate: a Plummer sphere, a uniform cube, a coincident pile alone and
// inside a cluster, two bodies, the Plummer sphere at 2^±300, and a
// ForceSplit tree cut below the bucket size.
func TestBmaxExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	plPos, plMass := plummerBodies(6000, 11)
	cube := make([]vec.V3, 4000)
	for i := range cube {
		cube[i] = vec.V3{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	masses := func(n int) []float64 {
		m := make([]float64, n)
		for i := range m {
			m[i] = 1 + rng.Float64()
		}
		return m
	}
	pile := make([]vec.V3, 100)
	for i := range pile {
		pile[i] = vec.V3{0.3, -0.7, 0.1}
	}
	clusterPos, _ := plummerBodies(900, 4)
	clusterPos = append(clusterPos, pile...)
	cases := []struct {
		name string
		pos  []vec.V3
		mass []float64
		opt  Options
	}{
		{"plummer", plPos, plMass, Options{MaxLeaf: 8}},
		{"cube", cube, masses(len(cube)), Options{MaxLeaf: 16}},
		{"pile", pile, masses(len(pile)), Options{MaxLeaf: 8}},
		{"pile-in-cluster", clusterPos, masses(len(clusterPos)), Options{MaxLeaf: 8}},
		{"two", []vec.V3{{0, 0, 0}, {1, 2, 3}}, []float64{1, 3}, Options{MaxLeaf: 1}},
		{"plummer-2^300", atScale(plPos, 300), plMass, Options{MaxLeaf: 8}},
		{"plummer-2^-300", atScale(plPos, -300), plMass, Options{MaxLeaf: 8}},
		{"forcesplit", plPos[:3000], plMass[:3000], Options{MaxLeaf: 16, ForceSplit: func(k key.K) bool { return k.Level() < 3 }}},
	}
	for _, c := range cases {
		tr, err := Build(c.pos, c.mass, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		checkBmaxExact(t, c.name, tr)
	}
}

// TestBmaxNearTies puts two bodies on one ray in each root octant, in
// antipodal pairs of equal mass, the outer one at unit distance: the root's
// center of mass is the origin to rounding, so its eight daughters' farthest
// bodies lie within a few ulps of each other and each daughter's bound is
// tight up to rounding. A bound that rounded below its body's distance would
// skip the farthest one; the margin keeps the maximum exact at unit scale
// and at 2^±300, and at 2^-530, where squared distances are subnormal and
// nothing may be skipped.
func TestBmaxNearTies(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	mass := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	for trial := 0; trial < 2000; trial++ {
		pos := make([]vec.V3, 0, 16)
		for _, s := range []vec.V3{{1, 1, 1}, {1, 1, -1}, {1, -1, 1}, {1, -1, -1}} {
			p := vec.V3{s[0] * (0.2 + rng.Float64()), s[1] * (0.2 + rng.Float64()), s[2] * (0.2 + rng.Float64())}
			p = p.Scale(1 / p.Norm())
			q := p.Scale(0.3 + 0.6*rng.Float64())
			pos = append(pos, p, p.Scale(-1), q, q.Scale(-1))
		}
		for _, k := range []int{0, 300, -300, -530} {
			for _, leaf := range []int{1, 2} {
				tr, err := Build(atScale(pos, k), mass, Options{MaxLeaf: leaf})
				if err != nil {
					t.Fatal(err)
				}
				checkBmaxExact(t, "near-ties", tr)
			}
		}
	}
}
