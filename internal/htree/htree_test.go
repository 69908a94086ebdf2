package htree

import (
	"math"
	"math/rand"
	"testing"

	"spacesim/internal/gravity"
	"spacesim/internal/key"
	"spacesim/internal/vec"
)

func plummerish(rng *rand.Rand, n int) ([]vec.V3, []float64) {
	// Centrally condensed cluster (like Figure 6's example set).
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i := range pos {
		r := math.Pow(rng.Float64(), 2) // condensed toward center
		u, v := rng.Float64(), rng.Float64()
		th := math.Acos(2*u - 1)
		ph := 2 * math.Pi * v
		pos[i] = vec.V3{
			r * math.Sin(th) * math.Cos(ph),
			r * math.Sin(th) * math.Sin(ph),
			r * math.Cos(th),
		}
		mass[i] = 1.0 / float64(n)
	}
	return pos, mass
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, nil, Options{}); err == nil {
		t.Fatal("empty body set must fail")
	}
	if _, err := Build(make([]vec.V3, 3), make([]float64, 2), Options{}); err == nil {
		t.Fatal("length mismatch must fail")
	}
}

func TestBuildInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 9, 100, 1000} {
		pos, mass := plummerish(rng, n)
		tr, err := Build(pos, mass, Options{MaxLeaf: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Root().N != n {
			t.Fatalf("root count %d != %d", tr.Root().N, n)
		}
		// total mass conserved
		if math.Abs(tr.Root().Mp.M-1.0) > 1e-9 {
			t.Fatalf("root mass = %v", tr.Root().Mp.M)
		}
	}
	// A body range that is not its daughters' span is caught, on internal
	// cells as on leaves.
	pos, mass := plummerish(rng, 1000)
	tr, err := Build(pos, mass, Options{MaxLeaf: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Cell{tr.Root(), tr.Groups()[1], tr.Leaves()[2]} {
		c.Lo, c.Hi = c.Lo+1, c.Hi+1
		if tr.CheckInvariants() == nil {
			t.Fatalf("cell %v shifted to [%d,%d) passes", c.Key, c.Lo, c.Hi)
		}
		c.Lo, c.Hi = c.Lo-1, c.Hi-1
	}
}

func TestBoundingCube(t *testing.T) {
	pos := []vec.V3{{-1, 0, 0}, {1, 2, 3}}
	lo, size := BoundingCube(pos)
	for _, p := range pos {
		for i := 0; i < 3; i++ {
			if p[i] < lo[i] || p[i] >= lo[i]+size {
				t.Fatalf("point %v outside cube lo=%v size=%v", p, lo, size)
			}
		}
	}
	// degenerate: identical points
	lo, size = BoundingCube([]vec.V3{{5, 5, 5}, {5, 5, 5}})
	if size <= 0 {
		t.Fatal("degenerate cube must have positive size")
	}
	_ = lo
}

func TestDuplicatePositions(t *testing.T) {
	// Bodies at the same position must still build (leaf at MaxLevel).
	pos := make([]vec.V3, 20)
	mass := make([]float64, 20)
	for i := range pos {
		pos[i] = vec.V3{0.5, 0.5, 0.5}
		mass[i] = 1
	}
	tr, err := Build(pos, mass, Options{MaxLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Root().Mp.M != 20 {
		t.Fatal("mass lost")
	}
}

// Tree forces must converge to direct summation as theta -> 0 and stay
// within the expected error at practical theta.
func TestTreeForceVsDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 500
	pos, mass := plummerish(rng, n)
	eps := 0.01
	accD, potD := gravity.Direct(pos, mass, eps)

	var rmsByTheta []float64
	for _, tc := range []struct {
		theta   float64
		maxRMS  float64
		maxMean float64
	}{
		{0.3, 4e-3, 2e-3},
		{0.7, 2e-2, 8e-3},
	} {
		tr, err := Build(pos, mass, Options{MaxLeaf: 8})
		if err != nil {
			t.Fatal(err)
		}
		accT, potT, st := tr.AccelAll(tc.theta, eps)
		if st.CellInteractions == 0 {
			t.Fatal("no cell interactions: MAC never accepted")
		}
		var sum2, ref2 float64
		for i := range accD {
			sum2 += accT[i].Sub(accD[i]).Norm2()
			ref2 += accD[i].Norm2()
		}
		rms := math.Sqrt(sum2 / ref2)
		rmsByTheta = append(rmsByTheta, rms)
		if rms > tc.maxRMS {
			t.Fatalf("theta=%v: rms force error %g > %g", tc.theta, rms, tc.maxRMS)
		}
		var perr float64
		for i := range potD {
			perr += math.Abs(potT[i]-potD[i]) / math.Abs(potD[i])
		}
		perr /= float64(n)
		if perr > tc.maxMean {
			t.Fatalf("theta=%v: mean pot error %g > %g", tc.theta, perr, tc.maxMean)
		}
	}
	// Tightening theta must tighten the forces ("properly used, these
	// methods do not contribute significantly to the total solution error").
	if rmsByTheta[0] >= rmsByTheta[1] {
		t.Fatalf("rms error did not decrease with theta: %v", rmsByTheta)
	}
}

// theta=0 forces the tree to open every cell: forces must equal direct
// summation to near machine precision.
func TestTreeThetaZeroExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pos, mass := plummerish(rng, 120)
	eps := 0.05
	tr, err := Build(pos, mass, Options{MaxLeaf: 4})
	if err != nil {
		t.Fatal(err)
	}
	accT, _, st := tr.AccelAll(0, eps)
	accD, _ := gravity.Direct(pos, mass, eps)
	if st.CellInteractions != 0 {
		t.Fatalf("theta 0 should accept no cells, got %d", st.CellInteractions)
	}
	for i := range accD {
		if accT[i].Sub(accD[i]).Norm() > 1e-11*(1+accD[i].Norm()) {
			t.Fatalf("body %d: %v vs %v", i, accT[i], accD[i])
		}
	}
}

// The traversal does O(N log N)-ish work: interactions per body must be far
// below N and grow slowly.
func TestTreeWorkScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	perBody := func(n int) float64 {
		pos, mass := plummerish(rng, n)
		tr, err := Build(pos, mass, Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, _, st := tr.AccelAll(0.7, 0.01)
		return float64(st.CellInteractions+st.BodyInteractions) / float64(n)
	}
	w1, w2 := perBody(500), perBody(4000)
	if w2 > float64(4000)/4 {
		t.Fatalf("interactions per body %v ~ O(N): tree not pruning", w2)
	}
	// 8x more bodies should grow per-body work far less than 8x.
	if w2/w1 > 3 {
		t.Fatalf("per-body work grew %vx for 8x bodies", w2/w1)
	}
}

func TestCellLookupAndRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pos, mass := plummerish(rng, 300)
	tr, err := Build(pos, mass, Options{MaxLeaf: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.Cell(key.Root); !ok {
		t.Fatal("root not in hash")
	}
	// A key for an empty region must miss.
	if tr.NumCells() < 2 {
		t.Fatal("tree too small")
	}
	// A leaf's sources, Sources()[Lo:Hi], are its N bodies with the right
	// total mass.
	var findLeaf func(k key.K) *Cell
	findLeaf = func(k key.K) *Cell {
		c := mustCell(t, tr, k)
		if c.Leaf {
			return c
		}
		for oct := 0; oct < 8; oct++ {
			if c.ChildMask&(1<<uint(oct)) != 0 {
				return findLeaf(k.Child(oct))
			}
		}
		t.Fatal("internal cell without children")
		return nil
	}
	leaf := findLeaf(key.Root)
	src := tr.Sources()[leaf.Lo:leaf.Hi]
	if len(src) != leaf.N {
		t.Fatal("leaf sources length mismatch")
	}
	var m float64
	for _, s := range src {
		m += s.Mass
	}
	if math.Abs(m-leaf.Mp.M) > 1e-12 {
		t.Fatal("leaf mass mismatch")
	}
}

func mustCell(t *testing.T, tr *Tree, k key.K) *Cell {
	t.Helper()
	c, ok := tr.Cell(k)
	if !ok {
		t.Fatalf("cell %v missing", k)
	}
	return c
}

func TestAcceptMAC(t *testing.T) {
	if AcceptMAC(10, 1, 0.5) != true {
		t.Fatal("well-separated cell must be accepted")
	}
	if AcceptMAC(1, 1, 0.5) != false {
		t.Fatal("close cell must be opened")
	}
	if AcceptMAC(0, 0, 0.5) != false {
		t.Fatal("coincident cell must be opened")
	}
}

func BenchmarkBuild10k(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	pos, mass := plummerish(rng, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(pos, mass, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccelAll4k(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	pos, mass := plummerish(rng, 4000)
	tr, err := Build(pos, mass, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.AccelAll(0.7, 0.01)
	}
}
