package htree

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"spacesim/internal/gravity"
	"spacesim/internal/vec"
)

// Golden digests of the grouped walk, captured from the seed engine (the
// scalar Multipole.AccelAt cell loop and unblocked batch kernels) on this
// configuration. The blocked SoA kernels must reproduce the seed results
// bit for bit at every worker count — this is the repo's determinism rule
// applied across the kernel rewrite. The constants encode amd64 semantics
// (no FMA contraction); on other architectures the compiler may fuse
// multiply-adds differently, so the raw digests are only asserted there
// against themselves across worker counts.
const (
	goldenHtreeLibm = 0x993f680ff744bb1f
	goldenHtreeKarp = 0xc9105edeebc95db7
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
	tr, err := Build(pos, mass, Options{MaxLeaf: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		karp bool
		want uint64
	}{
		{false, goldenHtreeLibm},
		{true, goldenHtreeKarp},
	} {
		var first uint64
		for _, w := range []int{1, 4} {
			acc, pot, _ := tr.AccelAllGrouped(0.7, 0.01, tc.karp, gravity.Float64, w)
			d := digestAccPot(acc, pot)
			if w == 1 {
				first = d
			} else if d != first {
				t.Fatalf("karp=%v: workers=%d digest %#x != workers=1 digest %#x", tc.karp, w, d, first)
			}
			if runtime.GOARCH == "amd64" && d != tc.want {
				t.Errorf("karp=%v workers=%d: digest %#x, want seed %#x", tc.karp, w, d, tc.want)
			}
		}
	}
}
