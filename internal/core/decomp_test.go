package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"spacesim/internal/htree"
	"spacesim/internal/key"
	"spacesim/internal/vec"
)

// sortBodiesByKeyReference is the comparison sort sortBodiesByKey replaced,
// kept as its oracle: (Key, ID) order by sort.Slice.
func sortBodiesByKeyReference(bodies []Body) {
	sort.Slice(bodies, func(i, j int) bool {
		a, b := &bodies[i], &bodies[j]
		return a.Key < b.Key || (a.Key == b.Key && a.ID < b.ID)
	})
}

// TestSortBodiesByKeyMatchesReference holds the radix sort to the
// comparison sort's (Key, ID) order on every size from empty to a benchmark
// rank's and on inputs that stress each part of it: random keys, keys
// already in order (the fast path), reversed, one key for every body, and
// piles of coincident bodies. IDs are a random permutation, so equal keys
// arrive with their IDs out of order and the tie pass alone decides theirs;
// IDs are unique, so the order is unique too and whole bodies must match.
func TestSortBodiesByKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	inputs := []struct {
		name  string
		keyOf func(i, n int) key.K
	}{
		{"random", func(int, int) key.K { return key.K(rng.Uint64()) }},
		{"sorted", func(i, _ int) key.K { return key.K(i/2) << 20 }}, // pairs share a key
		{"reverse", func(i, n int) key.K { return key.K(n-i) << 9 }},
		{"all-same", func(int, int) key.K { return 0x1234 }},
		{"piles", func(int, int) key.K { return key.K(rng.Intn(5)) << 61 }},
	}
	for _, n := range []int{0, 1, 2, 3, 17, 2049, 32768} {
		for _, in := range inputs {
			bodies := make([]Body, n)
			for i, id := range rng.Perm(n) {
				bodies[i] = Body{Key: in.keyOf(i, n), ID: int64(id), Mass: float64(i), Work: float64(id)}
			}
			want := append([]Body(nil), bodies...)
			sortBodiesByKeyReference(want)
			sortBodiesByKey(bodies)
			for i := range want {
				if bodies[i] != want[i] {
					t.Fatalf("%s n=%d: position %d holds %+v, want %+v", in.name, n, i, bodies[i], want[i])
				}
			}
		}
	}
}

// TestSortBodiesByKeyReusesScratch sorts arrays of shrinking and growing
// sizes in turn, so pooled scratch from a larger sort is reused by a smaller
// one and the other way round.
func TestSortBodiesByKeyReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{5000, 10, 0, 3000, 7000, 1} {
		bodies := make([]Body, n)
		for i := range bodies {
			bodies[i] = Body{Key: key.K(rng.Intn(n/4 + 1)), ID: int64(rng.Int63())}
		}
		want := append([]Body(nil), bodies...)
		sortBodiesByKeyReference(want)
		sortBodiesByKey(bodies)
		for i := range want {
			if bodies[i] != want[i] {
				t.Fatalf("n=%d: position %d differs", n, i)
			}
		}
	}
}

// BenchmarkSortBodiesByKey sorts a rank's worth of Plummer bodies as a step
// finds them: in last step's key order, keyed again after a small drift.
func BenchmarkSortBodiesByKey(b *testing.B) {
	for _, n := range []int{512, 32768} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			ics := PlummerSphere(rng, n, 1.0)
			pos := make([]vec.V3, n)
			for i := range ics {
				pos[i] = ics[i].Pos
			}
			lo, size := htree.BoundingCube(pos)
			for i := range ics {
				ics[i].Key = key.FromPosition(ics[i].Pos, lo, size)
			}
			sortBodiesByKeyReference(ics)
			for i := range ics {
				ics[i].Pos = ics[i].Pos.AddScaled(0.005, ics[i].Vel)
				ics[i].Key = key.FromPosition(ics[i].Pos, lo, size)
			}
			bodies := make([]Body, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(bodies, ics)
				sortBodiesByKey(bodies)
			}
		})
	}
}
