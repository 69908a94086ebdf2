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

// Golden digest of the distributed grouped engine on this configuration:
// 3 ranks, so interaction lists mix local and fetched data. The constants
// encode amd64 semantics (the tree build is left to the compiler's
// contraction elsewhere); on other architectures only worker-count
// invariance is asserted.
//
// seedCoreLibm was captured from the seed, which sorted every multi-rank
// list by value before summing it with one math.Sqrt and one divide per
// interaction. The production digest was re-pinned twice with the lists
// proven unchanged by TestSeedDigestFromSortedLists, which walks one group
// per leaf as the seed did, sorts the lists again, sums them with the seed's
// arithmetic (gravity/seedref) and recovers the seed constant: when the
// engine began summing each list in depth-first tree order (ISSUE 15,
// 0xae053dacef880958), and when the kernels took the Newton reciprocal square
// root and fused multiply-adds (ISSUE 24) — leafCoreLibm, which the engine
// still reproduces one walker per leaf (leafGroups). goldenCoreLibm is the
// digest one walker per sink group, re-pinned when local leaves were tested
// like remote ones and groups grew to 80 bodies.
const (
	seedCoreLibm = 0x160724b8d237cd8f

	leafCoreLibm   = 0xc86177c97c9ed1d3
	goldenCoreLibm = 0xedfb117bee86ba6e
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
	for _, pin := range []struct {
		leaves bool
		want   uint64
	}{{false, goldenCoreLibm}, {true, leafCoreLibm}} {
		if pin.leaves {
			leafGroups(t)
		}
		var first uint64
		for _, w := range []int{1, 4} {
			acc, pot := forcesWith(ics, 3, Options{Theta: 0.7, Eps: 0.01, Workers: w})
			d := digestForces(acc, pot)
			if w == 1 {
				first = d
			} else if d != first {
				t.Fatalf("leaves=%v workers=%d digest %#x != workers=1 digest %#x", pin.leaves, w, d, first)
			}
			if runtime.GOARCH == "amd64" && d != pin.want {
				t.Errorf("leaves=%v workers=%d: digest %#x, want %#x", pin.leaves, w, d, pin.want)
			}
		}
	}
}

// The tree-order lists are the seed's lists: walk one group per leaf as the
// seed did, gather every bucket again with the engine's own resident walk,
// sort both halves of each list by value the way the seed did, evaluate with
// the seed's arithmetic, and the seed's digest comes back unedited.
func TestSeedDigestFromSortedLists(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("seed digests encode amd64 floating-point semantics")
	}
	leafGroups(t)
	const n, p = 1500, 3
	ics := PlummerSphere(rand.New(rand.NewSource(7)), n, 1.0)
	acc := make([]vec.V3, n)
	pot := make([]float64, n)
	mp.Run(testCluster(), p, func(r *mp.Rank) {
		lo, hi := n*r.ID()/p, n*(r.ID()+1)/p
		bodies, splitters, boxLo, boxSize := Decompose(r, append([]Body(nil), ics[lo:hi]...))
		dt := BuildDistributed(r, bodies, splitters, boxLo, boxSize, Options{Theta: 0.7, Eps: 0.01, Workers: 1})
		dt.ComputeForces(bodies)
		a, ph := regatherForces(dt, bodies, true)
		for i := range bodies {
			acc[bodies[i].ID], pot[bodies[i].ID] = a[i], ph[i]
		}
	})
	if d := digestForces(acc, pot); d != seedCoreLibm {
		t.Errorf("digest of sorted tree-order lists under the seed's arithmetic %#x, want seed %#x", d, uint64(seedCoreLibm))
	}
}
