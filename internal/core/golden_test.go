package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"spacesim/internal/mp"
	"spacesim/internal/vec"
)

// Golden digests of the distributed grouped engine on this configuration:
// 3 ranks, so interaction lists mix local and fetched data. The constants
// encode amd64 semantics (no FMA contraction); elsewhere only worker-count
// invariance is asserted.
//
// seedCoreLibm/Karp were captured from the seed, which sorted every
// multi-rank list by value before summing it. goldenCoreLibm/Karp were
// re-pinned once, when the engine began summing each list in depth-first
// tree order instead (ISSUE 15): the lists hold the same cells and bodies —
// TestSeedDigestFromSortedLists sorts them again and recovers the seed
// constants — and only the order of summation moved.
const (
	seedCoreLibm = 0x160724b8d237cd8f
	seedCoreKarp = 0x44f6a8d2585f487a

	goldenCoreLibm = 0xae053dacef880958
	goldenCoreKarp = 0x8842747549b0ac83
)

func digestForces(acc []vec.V3, pot []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	for i := range acc {
		put(acc[i][0])
		put(acc[i][1])
		put(acc[i][2])
		put(pot[i])
	}
	return h.Sum64()
}

func TestDistributedGroupedGoldenDigest(t *testing.T) {
	ics := PlummerSphere(rand.New(rand.NewSource(7)), 1500, 1.0)
	for _, tc := range []struct {
		karp bool
		want uint64
	}{
		{false, goldenCoreLibm},
		{true, goldenCoreKarp},
	} {
		var first uint64
		for _, w := range []int{1, 4} {
			acc, pot := forcesWith(ics, 3, Options{Theta: 0.7, Eps: 0.01, Workers: w, UseKarp: tc.karp})
			d := digestForces(acc, pot)
			if w == 1 {
				first = d
			} else if d != first {
				t.Fatalf("karp=%v: workers=%d digest %#x != workers=1 digest %#x", tc.karp, w, d, first)
			}
			if runtime.GOARCH == "amd64" && d != tc.want {
				t.Errorf("karp=%v workers=%d: digest %#x, want %#x", tc.karp, w, d, tc.want)
			}
		}
	}
}

// The tree-order lists are the seed's lists: gather every bucket again with
// the engine's own resident walk, sort both halves of each list by value the
// way the seed did, evaluate, and the seed's digests come back unedited.
func TestSeedDigestFromSortedLists(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("seed digests encode amd64 floating-point semantics")
	}
	const n, p = 1500, 3
	ics := PlummerSphere(rand.New(rand.NewSource(7)), n, 1.0)
	for _, tc := range []struct {
		karp bool
		want uint64
	}{
		{false, seedCoreLibm},
		{true, seedCoreKarp},
	} {
		acc := make([]vec.V3, n)
		pot := make([]float64, n)
		mp.Run(testCluster(), p, func(r *mp.Rank) {
			lo, hi := n*r.ID()/p, n*(r.ID()+1)/p
			bodies, splitters, boxLo, boxSize := Decompose(r, append([]Body(nil), ics[lo:hi]...))
			dt := BuildDistributed(r, bodies, splitters, boxLo, boxSize, Options{Theta: 0.7, Eps: 0.01, Workers: 1, UseKarp: tc.karp})
			dt.ComputeForces(bodies)
			a, ph := regatherForces(dt, bodies, true)
			for i := range bodies {
				acc[bodies[i].ID], pot[bodies[i].ID] = a[i], ph[i]
			}
		})
		if d := digestForces(acc, pot); d != tc.want {
			t.Errorf("karp=%v: digest of sorted tree-order lists %#x, want seed %#x", tc.karp, d, tc.want)
		}
	}
}
