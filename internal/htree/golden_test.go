package htree

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"spacesim/internal/gravity"
	"spacesim/internal/gravity/seedref"
	"spacesim/internal/key"
	"spacesim/internal/vec"
)

// Digests of the grouped walk on this configuration. seedHtreeLibm was
// captured from the seed engine (the scalar Multipole.AccelAt cell loop and
// unblocked batch kernels, one math.Sqrt and one divide per interaction);
// TestSeedDigestFromLibmLoops still recovers it, unedited, from today's
// leaf lists summed with that arithmetic (gravity/seedref). goldenHtree is
// the production kernels' digest, re-pinned when the walk went from one per
// leaf to one per sink group and again when leaves were tested like any other
// cell and groups grew to 80 bodies; leafHtree is its value one walk per leaf
// with leaves never accepted (LeafGroups), pinned when the kernels took the
// Newton reciprocal square root and fused multiply-adds. Every kernel width
// and any worker count must reproduce both. The constants encode amd64
// semantics; on
// other architectures the compiler may fuse the tree build's multiply-adds,
// so the raw digests are only asserted there against themselves across
// worker counts.
const (
	seedHtreeLibm = 0x993f680ff744bb1f
	goldenHtree   = 0x863f87bc69ba8d16
	leafHtree     = 0xe7c69ce1c7fa0151
)

func goldenBodies(n int) ([]vec.V3, []float64) {
	rng := rand.New(rand.NewSource(1))
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i := range pos {
		pos[i] = vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		mass[i] = rng.Float64() + 0.1
	}
	return pos, mass
}

// digestAccPot folds every output bit into an FNV-1a 64 stream in body
// order.
func digestAccPot(acc []vec.V3, pot []float64) uint64 {
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

func TestGroupedGoldenDigest(t *testing.T) {
	pos, mass := goldenBodies(4096)
	for _, pin := range []struct {
		leaves bool
		want   uint64
	}{{false, goldenHtree}, {true, leafHtree}} {
		if pin.leaves {
			LeafGroups(t)
		}
		tr, err := Build(pos, mass, Options{MaxLeaf: 16})
		if err != nil {
			t.Fatal(err)
		}
		var first uint64
		for _, w := range []int{1, 4} {
			acc, pot, _ := tr.AccelAllGrouped(0.7, 0.01, false, gravity.Float64, w)
			d := digestAccPot(acc, pot)
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

// The lists are the seed's lists: gather every bucket of the same tree with
// the production walk one group per leaf, as the seed walked, sum each list
// with the seed's arithmetic, and the seed's digest comes back.
func TestSeedDigestFromLibmLoops(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("seed digests encode amd64 floating-point semantics")
	}
	LeafGroups(t)
	pos, mass := goldenBodies(4096)
	tr, err := Build(pos, mass, Options{MaxLeaf: 16})
	if err != nil {
		t.Fatal(err)
	}
	acc := make([]vec.V3, len(pos))
	pot := make([]float64, len(pos))
	var sc BucketScratch
	for _, b := range tr.Groups() {
		mac := NewGroupMAC(b, 0.7)
		sc.Reset()
		tr.GatherList(key.Root, &mac, &sc)
		sinks := tr.Bodies[b.Lo:b.Hi]
		spos := make([]vec.V3, len(sinks))
		for j := range sinks {
			spos[j] = sinks[j].Pos
		}
		a, p := seedref.Forces(&sc.List, spos, 0.01)
		for j := range sinks {
			acc[sinks[j].ID], pot[sinks[j].ID] = a[j], p[j]
		}
	}
	if d := digestAccPot(acc, pot); d != seedHtreeLibm {
		t.Errorf("digest of today's lists under the seed's arithmetic %#x, want seed %#x", d, uint64(seedHtreeLibm))
	}
}
