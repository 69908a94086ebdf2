package key

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"spacesim/internal/vec"
)

func TestRootProperties(t *testing.T) {
	if Root.Level() != 0 {
		t.Fatalf("root level = %d", Root.Level())
	}
	if Root.Parent() != Root {
		t.Fatal("parent of root must be root")
	}
	if Invalid.Level() != -1 {
		t.Fatal("invalid level must be -1")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		ix := rng.Uint32() % coordMax
		iy := rng.Uint32() % coordMax
		iz := rng.Uint32() % coordMax
		k := FromCoords(ix, iy, iz)
		gx, gy, gz := k.Coords()
		if gx != ix || gy != iy || gz != iz {
			t.Fatalf("roundtrip (%d,%d,%d) -> %v -> (%d,%d,%d)", ix, iy, iz, k, gx, gy, gz)
		}
		if k.Level() != MaxLevel {
			t.Fatalf("body key level = %d", k.Level())
		}
	}
}

func TestClamping(t *testing.T) {
	k := FromCoords(coordMax+5, 0, 0)
	gx, _, _ := k.Coords()
	if gx != coordMax-1 {
		t.Fatalf("clamped x = %d", gx)
	}
	// Positions outside the box clamp to the edge rather than wrapping.
	lo := vec.V3{0, 0, 0}
	k2 := FromPosition(vec.V3{-1, 0.5, 2}, lo, 1.0)
	gx, gy, gz := k2.Coords()
	if gx != 0 || gz != coordMax-1 {
		t.Fatalf("clamped pos coords = (%d,%d,%d)", gx, gy, gz)
	}
}

func TestParentChildAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		k := randomCellKey(rng)
		for c := 0; c < 8; c++ {
			ch := k.Child(c)
			if ch.Parent() != k {
				t.Fatalf("Parent(Child(%v,%d)) = %v", k, c, ch.Parent())
			}
			if ch.Octant() != c {
				t.Fatalf("Octant = %d want %d", ch.Octant(), c)
			}
			if ch.Level() != k.Level()+1 {
				t.Fatalf("child level = %d", ch.Level())
			}
			if !k.Contains(ch) {
				t.Fatal("parent must contain child")
			}
		}
	}
}

func TestAncestorAt(t *testing.T) {
	k := FromCoords(123456, 654321, 111111)
	if k.AncestorAt(0) != Root {
		t.Fatal("level-0 ancestor must be root")
	}
	if k.AncestorAt(MaxLevel) != k {
		t.Fatal("same-level ancestor must be self")
	}
	if k.AncestorAt(-3) != Root {
		t.Fatal("negative level clamps to root")
	}
	a := k.AncestorAt(7)
	if a.Level() != 7 || !a.Contains(k) {
		t.Fatalf("AncestorAt(7): level=%d contains=%v", a.Level(), a.Contains(k))
	}
}

func TestContains(t *testing.T) {
	a := Root.Child(3).Child(5)
	inside := a.Child(0).Child(7)
	outside := Root.Child(4)
	if !a.Contains(a) {
		t.Fatal("cell contains itself")
	}
	if !a.Contains(inside) {
		t.Fatal("ancestor must contain descendant")
	}
	if a.Contains(outside) {
		t.Fatal("disjoint cells must not contain")
	}
	if inside.Contains(a) {
		t.Fatal("descendant must not contain ancestor")
	}
	for _, tc := range []struct {
		x, y K
		want bool
	}{{a, a, true}, {a, inside, true}, {inside, a, true}, {Root, inside, true}, {a, outside, false}, {outside, inside, false}, {a.Child(1), inside, false}} {
		if got := tc.x.Overlaps(tc.y); got != tc.want || got != (tc.x.Contains(tc.y) || tc.y.Contains(tc.x)) {
			t.Fatalf("%v overlaps %v: %v, want %v", tc.x, tc.y, got, tc.want)
		}
	}
}

func TestBodyKeyRange(t *testing.T) {
	c := Root.Child(2).Child(6)
	lo, hi := c.BodyKeyRange()
	if lo.Level() != MaxLevel {
		t.Fatalf("range lo level = %d", lo.Level())
	}
	if !c.Contains(lo) {
		t.Fatal("lo must lie inside cell")
	}
	if c.Contains(hi) {
		t.Fatal("hi must be exclusive")
	}
	// width = 8^(MaxLevel - level)
	want := K(1) << uint(3*(MaxLevel-c.Level()))
	if hi-lo != want {
		t.Fatalf("range width = %d want %d", hi-lo, want)
	}
}

// Property: Morton order preserves containment intervals — all body keys in a
// cell's range decode to coordinates inside the cell's cube.
func TestRangeSpatialConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		c := randomCellKey(rng)
		lo, hi := c.BodyKeyRange()
		cx, cy, cz := c.Coords()
		l := c.Level()
		cellW := uint32(1) << uint(coordBits-l)
		// sample a few keys within the range
		span := uint64(hi - lo)
		for j := 0; j < 8; j++ {
			k := lo + K(rng.Uint64()%span)
			// force placeholder correctness: lo+delta keeps level bits because
			// span < 8^(MaxLevel-l) <= placeholder spacing.
			x, y, z := k.Coords()
			if x < cx || x >= cx+cellW || y < cy || y >= cy+cellW || z < cz || z >= cz+cellW {
				t.Fatalf("key %v escapes cell %v", k, c)
			}
		}
	}
}

// Property: spatially nearby points receive nearby keys more often than
// far-apart points (locality of the self-similar curve, Fig. 6). We verify
// the weaker exact property: sorting keys sorts first on the high octant.
func TestMortonOrderGroupsOctants(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 512
	keys := make([]K, n)
	for i := range keys {
		keys[i] = FromCoords(rng.Uint32()%coordMax, rng.Uint32()%coordMax, rng.Uint32()%coordMax)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	prevOct := -1
	seen := make(map[int]bool)
	for _, k := range keys {
		oct := k.AncestorAt(1).Octant()
		if oct != prevOct {
			if seen[oct] {
				t.Fatalf("octant %d appears in two separate runs: Morton order broken", oct)
			}
			seen[oct] = true
			prevOct = oct
		}
	}
}

func TestCenterSize(t *testing.T) {
	boxLo := vec.V3{-1, -1, -1}
	boxSize := 2.0
	c, s := Root.CenterSize(boxLo, boxSize)
	if s != 2.0 || c != (vec.V3{0, 0, 0}) {
		t.Fatalf("root center/size = %v %v", c, s)
	}
	// child 7 (x=1,y=1,z=1 half-spaces) has center (0.5,0.5,0.5)
	c, s = Root.Child(7).CenterSize(boxLo, boxSize)
	if s != 1.0 || c != (vec.V3{0.5, 0.5, 0.5}) {
		t.Fatalf("child-7 center/size = %v %v", c, s)
	}
}

func TestFromPositionCenterInverse(t *testing.T) {
	// A body key's cell center must be within half a cell of the position.
	rng := rand.New(rand.NewSource(5))
	boxLo := vec.V3{-3, 2, 10}
	boxSize := 7.0
	cell := boxSize / float64(coordMax)
	for i := 0; i < 500; i++ {
		p := vec.V3{
			boxLo[0] + rng.Float64()*boxSize,
			boxLo[1] + rng.Float64()*boxSize,
			boxLo[2] + rng.Float64()*boxSize,
		}
		k := FromPosition(p, boxLo, boxSize)
		c, s := k.CenterSize(boxLo, boxSize)
		if s != cell {
			t.Fatalf("body cell size = %v want %v", s, cell)
		}
		d := c.Sub(p)
		if d.MaxAbs() > cell/2*(1+1e-9) {
			t.Fatalf("center %v too far from position %v (d=%v)", c, p, d.MaxAbs())
		}
	}
}

func TestString(t *testing.T) {
	k := Root.Child(0).Child(5).Child(2)
	if got := k.String(); got != "3:052" {
		t.Fatalf("String = %q", got)
	}
	if Invalid.String() != "invalid" {
		t.Fatal("invalid string")
	}
}

func TestSpreadCompactProperty(t *testing.T) {
	f := func(x uint32) bool {
		x %= coordMax
		return compact(spread(x)) == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: key order equals lexicographic order of interleaved octant paths,
// i.e. two distinct bodies compare the same way as their first differing
// ancestor octant.
func TestKeyOrderMatchesPathOrder(t *testing.T) {
	f := func(a, b uint64) bool {
		rng := rand.New(rand.NewSource(int64(a ^ b)))
		k1 := FromCoords(rng.Uint32()%coordMax, rng.Uint32()%coordMax, rng.Uint32()%coordMax)
		k2 := FromCoords(rng.Uint32()%coordMax, rng.Uint32()%coordMax, rng.Uint32()%coordMax)
		if k1 == k2 {
			return true
		}
		for l := 1; l <= MaxLevel; l++ {
			a1, a2 := k1.AncestorAt(l), k2.AncestorAt(l)
			if a1 != a2 {
				return (a1 < a2) == (k1 < k2)
			}
		}
		return false // distinct keys must diverge at some level
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func randomCellKey(rng *rand.Rand) K {
	l := 1 + rng.Intn(MaxLevel-1)
	k := Root
	for i := 0; i < l; i++ {
		k = k.Child(rng.Intn(8))
	}
	return k
}

func BenchmarkFromCoords(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]uint32, 1024)
	for i := range xs {
		xs[i] = rng.Uint32() % coordMax
	}
	b.ResetTimer()
	var sink K
	for i := 0; i < b.N; i++ {
		j := i & 1023
		sink = FromCoords(xs[j], xs[(j+1)&1023], xs[(j+2)&1023])
	}
	_ = sink
}

func BenchmarkCoords(b *testing.B) {
	k := FromCoords(123456, 654321, 111111)
	var sx uint32
	for i := 0; i < b.N; i++ {
		x, y, z := k.Coords()
		sx += x + y + z
	}
	_ = sx
}
