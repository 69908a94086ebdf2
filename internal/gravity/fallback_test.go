package gravity_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"spacesim/internal/core"
	"spacesim/internal/gravity"
	"spacesim/internal/htree"
	"spacesim/internal/vec"
)

// The kernel bodies must be indistinguishable at tree scale too: a grouped
// walk over a Plummer sample digests to the same value with the dispatcher
// on whatever KernelISA() names and forced to the Go loops. On a host
// without the assembly both runs are the Go loops and the test is vacuous.
func TestFallbackDigestMatchesAssembly(t *testing.T) {
	bodies := core.PlummerSphere(rand.New(rand.NewSource(19)), 3000, 1)
	pos := make([]vec.V3, len(bodies))
	mass := make([]float64, len(bodies))
	for i, b := range bodies {
		pos[i], mass[i] = b.Pos, b.Mass
	}
	tr, err := htree.Build(pos, mass, htree.Options{MaxLeaf: 13})
	if err != nil {
		t.Fatal(err)
	}
	digest := func() uint64 {
		acc, pot, _ := tr.AccelAllGrouped(0.7, 0.01, false, gravity.Float64, 2)
		h := fnv.New64a()
		var buf [32]byte
		for i := range acc {
			for c, v := range [4]float64{acc[i][0], acc[i][1], acc[i][2], pot[i]} {
				binary.LittleEndian.PutUint64(buf[8*c:], math.Float64bits(v))
			}
			h.Write(buf[:])
		}
		return h.Sum64()
	}
	dispatched := digest()
	restore := gravity.ForceGoKernels()
	forced := digest()
	restore()
	if dispatched != forced {
		t.Fatalf("%s kernels digest %#x, Go loops digest %#x", gravity.KernelISA(), dispatched, forced)
	}
}
