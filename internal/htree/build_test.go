package htree

import (
	"math/rand"
	"spacesim/internal/gravity"
	"testing"

	"spacesim/internal/key"
	"spacesim/internal/vec"
)

// plummerBodies generates a seeded Plummer-like cluster (the same shape the
// benchmarks use) with a few exact duplicates mixed in to exercise key ties.
func plummerBodies(n int, seed int64) ([]vec.V3, []float64) {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i := range pos {
		r := 1.0 / (rng.Float64()*3 + 0.1)
		u, v := rng.Float64()*2-1, rng.Float64()*6.28318
		s := 1 - u*u
		if s < 0 {
			s = 0
		}
		pos[i] = vec.V3{r * s * cosApprox(v), r * s * sinApprox(v), r * u}
		mass[i] = 1.0 / float64(n)
	}
	// Exact duplicates: every 97th body lands on top of a neighbor.
	for i := 97; i < n; i += 97 {
		pos[i] = pos[i-1]
	}
	return pos, mass
}

func cosApprox(x float64) float64 { return 1 - x*x/2 + x*x*x*x/24 }
func sinApprox(x float64) float64 { return x - x*x*x/6 + x*x*x*x*x/120 }

func sameTree(t *testing.T, label string, a, b *Tree) {
	t.Helper()
	if len(a.Bodies) != len(b.Bodies) {
		t.Fatalf("%s: %d vs %d bodies", label, len(a.Bodies), len(b.Bodies))
	}
	for i := range a.Bodies {
		if a.Bodies[i] != b.Bodies[i] || a.src[i] != b.src[i] {
			t.Fatalf("%s: body %d differs: %+v %+v vs %+v %+v", label, i, a.Bodies[i], a.src[i], b.Bodies[i], b.src[i])
		}
	}
	if a.NumCells() != b.NumCells() {
		t.Fatalf("%s: %d vs %d cells", label, a.NumCells(), b.NumCells())
	}
	for i := range a.store.cells {
		ca := &a.store.cells[i]
		cb, ok := b.Cell(ca.Key)
		if !ok {
			t.Fatalf("%s: cell %v missing", label, ca.Key)
		}
		// The daughter links are slab positions, and the two slabs may be laid
		// out differently; CheckInvariants holds each tree's to its own keys.
		va, vb := *ca, *cb
		va.kids, vb.kids = [8]int32{}, [8]int32{}
		if va != vb {
			t.Fatalf("%s: cell %v differs:\n%+v\nvs\n%+v", label, ca.Key, va, vb)
		}
	}
}

// TestBuildBitIdentical pins the tentpole guarantee: the parallel pipeline
// produces, for every worker count, exactly the tree and exactly the
// accelerations/potentials of the serial reference path — every float bit.
func TestBuildBitIdentical(t *testing.T) {
	pos, mass := plummerBodies(6000, 11)
	opt := Options{MaxLeaf: 8}
	ref, err := BuildReference(pos, mass, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.CheckInvariants(); err != nil {
		t.Fatalf("reference invariants: %v", err)
	}
	refAcc, refPot, _ := ref.AccelAll(0.7, 0.01)

	for _, workers := range []int{1, 2, 4, 7} {
		o := opt
		o.Workers = workers
		tr, err := Build(pos, mass, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("workers=%d invariants: %v", workers, err)
		}
		sameTree(t, "workers", ref, tr)
		acc, pot, _ := tr.AccelAll(0.7, 0.01)
		for i := range acc {
			if acc[i] != refAcc[i] || pot[i] != refPot[i] {
				t.Fatalf("workers=%d: body %d acc/pot differ: %v/%v vs %v/%v",
					workers, i, acc[i], pot[i], refAcc[i], refPot[i])
			}
		}
		// The grouped walk on the pipeline tree must also match itself
		// across worker counts (its own bit-identity guarantee composed
		// with the build's).
		gacc, gpot, _ := tr.AccelAllGrouped(0.7, 0.01, false, gravity.Float64, 1)
		gacc2, gpot2, _ := tr.AccelAllGrouped(0.7, 0.01, false, gravity.Float64, workers)
		for i := range gacc {
			if gacc[i] != gacc2[i] || gpot[i] != gpot2[i] {
				t.Fatalf("workers=%d: grouped walk diverges at body %d", workers, i)
			}
		}
	}
}

// TestBuildBitIdenticalForceSplit repeats the identity check with a
// ForceSplit predicate (the distributed path's domain-boundary splitting),
// which drives cells below MaxLeaf and down to MaxLevel on duplicates.
func TestBuildBitIdenticalForceSplit(t *testing.T) {
	pos, mass := plummerBodies(3000, 5)
	split := func(k key.K) bool { return k.Level() < 3 }
	opt := Options{MaxLeaf: 16, ForceSplit: split}
	ref, err := BuildReference(pos, mass, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 7} {
		o := opt
		o.Workers = workers
		tr, err := Build(pos, mass, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("workers=%d invariants: %v", workers, err)
		}
		sameTree(t, "forcesplit", ref, tr)
	}
}

// TestBuildDuplicateOrder is the key-sort tie regression test: coincident
// bodies share a Morton key, and both construction paths must order them by
// (Key, ID) — the seed's unstable sort.Slice put them in arbitrary order,
// perturbing leaf combine order.
func TestBuildDuplicateOrder(t *testing.T) {
	const n = 40
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i := range pos {
		pos[i] = vec.V3{0.25, 0.5, 0.75} // all coincident: every key equal
		mass[i] = float64(i + 1)
	}
	for _, build := range []struct {
		name string
		fn   func([]vec.V3, []float64, Options) (*Tree, error)
	}{{"reference", BuildReference}, {"pipeline", func(p []vec.V3, m []float64, o Options) (*Tree, error) {
		o.Workers = 4
		return Build(p, m, o)
	}}} {
		tr, err := build.fn(pos, mass, Options{MaxLeaf: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr.Bodies {
			if tr.Bodies[i].ID != i {
				t.Fatalf("%s: tied bodies not in ID order: position %d holds ID %d",
					build.name, i, tr.Bodies[i].ID)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", build.name, err)
		}
	}
}

// TestBuildArenaReuse drives one arena through builds of varying sizes and
// checks each result against an arena-free build of the same input.
func TestBuildArenaReuse(t *testing.T) {
	ar := &Arena{}
	for i, n := range []int{5000, 300, 5000, 1200, 47, 3000} {
		pos, mass := plummerBodies(n, int64(100+i))
		withAr, err := Build(pos, mass, Options{MaxLeaf: 8, Workers: 4, Arena: ar})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Build(pos, mass, Options{MaxLeaf: 8, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := withAr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d arena invariants: %v", n, err)
		}
		sameTree(t, "arena", fresh, withAr)
	}
}

// TestLeavesBodyOrder checks the slab-scan Leaves contract on both paths:
// ascending, adjacent ranges covering the whole body array.
func TestLeavesBodyOrder(t *testing.T) {
	pos, mass := plummerBodies(4000, 9)
	for _, workers := range []int{1, 4} {
		tr, err := Build(pos, mass, Options{MaxLeaf: 8, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		leaves := tr.Leaves()
		at := 0
		for i, c := range leaves {
			if c.Lo != at {
				t.Fatalf("workers=%d: leaf %d starts at %d, want %d", workers, i, c.Lo, at)
			}
			at = c.Hi
		}
		if at != len(tr.Bodies) {
			t.Fatalf("workers=%d: leaves end at %d of %d", workers, at, len(tr.Bodies))
		}
	}
}
