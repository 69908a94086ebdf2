package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"spacesim/internal/htree"
	"spacesim/internal/key"
	"spacesim/internal/mp"
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

// denseDecompose is the oracle of Decompose's exchange: every body keyed in
// the same cube, and sent by a dense pairwise exchange (every rank to every
// rank, one AlltoallAny) to the owner its key has under the same splitters.
func denseDecompose(r *mp.Rank, bodies []Body, splitters []key.K, boxLo vec.V3, boxSize float64) []Body {
	chunks := make([][]Body, r.Size())
	for _, b := range bodies {
		b.Key = key.FromPosition(b.Pos, boxLo, boxSize)
		if b.Work <= 0 {
			b.Work = 1
		}
		d := Owner(splitters, b.Key)
		chunks[d] = append(chunks[d], b)
	}
	send := make([]any, r.Size())
	sizes := make([]int64, r.Size())
	for d := range chunks {
		send[d], sizes[d] = chunks[d], int64(len(chunks[d])*bodyWireBytes)
	}
	var local []Body
	for _, c := range r.AlltoallAny(send, sizes) {
		local = append(local, c.([]Body)...)
	}
	sortBodiesByKeyReference(local)
	return local
}

// clusteredBodies returns n bodies in four tight Plummer clumps, one in ten
// of them piled on a single point.
func clusteredBodies(rng *rand.Rand, n int) []Body {
	bodies := PlummerSphere(rng, n, 0.02)
	for i := range bodies {
		c := float64(i % 4)
		bodies[i].Pos = bodies[i].Pos.Add(vec.V3{c, c * c / 3, -c})
		if i%10 == 0 {
			bodies[i].Pos = vec.V3{2, 1, -2} // a pile of coincident bodies
		}
	}
	return bodies
}

// Decompose sends each body only to the ranks whose new key range its
// sender's span reaches, and it must hand every rank exactly the bodies a
// dense exchange would: on Plummer, uniform and clustered bodies (coincident
// ones included), with random work weights, on rank counts that are and are
// not powers of two, with fewer bodies than ranks, and twice in a row — the
// first time from the block scatter, where spans cover most of key space, the
// second from the decomposed state, where they reach a neighbour or two.
func TestDecomposeMatchesDenseExchange(t *testing.T) {
	for _, ic := range []struct {
		name string
		make func(rng *rand.Rand, n int) []Body
	}{
		{"plummer", func(rng *rand.Rand, n int) []Body { return PlummerSphere(rng, n, 1.0) }},
		{"uniform", func(rng *rand.Rand, n int) []Body { return ColdSphere(rng, n, 1.0) }},
		{"clustered", clusteredBodies},
	} {
		for _, tc := range []struct{ n, p int }{{1500, 3}, {1500, 8}, {2000, 13}, {5, 8}, {0, 4}} {
			rng := rand.New(rand.NewSource(int64(tc.n + tc.p)))
			ics := ic.make(rng, tc.n)
			for i := range ics {
				ics[i].Work = 1 + 9*rng.Float64()
			}
			mp.Run(testCluster(), tc.p, func(r *mp.Rank) {
				lo, hi := tc.n*r.ID()/tc.p, tc.n*(r.ID()+1)/tc.p
				local := append([]Body(nil), ics[lo:hi]...)
				for round := 0; round < 2; round++ {
					in := append([]Body(nil), local...)
					got, splitters, boxLo, boxSize := Decompose(r, local)
					want := denseDecompose(r, in, splitters, boxLo, boxSize)
					if len(got) != len(want) {
						t.Fatalf("%s n=%d p=%d round %d: rank %d holds %d bodies, the dense exchange %d",
							ic.name, tc.n, tc.p, round, r.ID(), len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s n=%d p=%d round %d: rank %d body %d is %+v, the dense exchange's %+v",
								ic.name, tc.n, tc.p, round, r.ID(), i, got[i], want[i])
						}
					}
					local = got
					for i := range local {
						local[i].Pos = local[i].Pos.AddScaled(0.01, local[i].Vel)
					}
				}
			})
		}
	}
}
