package gravity_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"spacesim/internal/core"
	"spacesim/internal/gravity"
	"spacesim/internal/htree"
	"spacesim/internal/key"
	"spacesim/internal/machine"
	"spacesim/internal/netsim"
	"spacesim/internal/vec"
)

func digest(acc []vec.V3, pot []float64) uint64 {
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

func plummer(seed int64, n int) ([]vec.V3, []float64) {
	bodies := core.PlummerSphere(rand.New(rand.NewSource(seed)), n, 1)
	pos := make([]vec.V3, len(bodies))
	mass := make([]float64, len(bodies))
	for i, b := range bodies {
		pos[i], mass[i] = b.Pos, b.Mass
	}
	return pos, mass
}

// leafForces is AccelAllGrouped one walk per leaf with leaves never accepted,
// the walk before sink groups (htree.Grouping), through the tree's exported
// walk.
func leafForces(tr *htree.Tree, theta, eps float64) ([]vec.V3, []float64) {
	defer htree.Grouping(0, true)()
	acc, pot := make([]vec.V3, len(tr.Bodies)), make([]float64, len(tr.Bodies))
	var sc htree.BucketScratch
	for _, b := range tr.Leaves() {
		center, radius := b.BoundingSphere()
		mac := htree.NewBucketMAC(center, radius, theta)
		sc.Reset()
		tr.GatherList(key.Root, &mac, &sc)
		tr.EvalBucket(b, eps, &sc, acc, pot)
	}
	return acc, pot
}

// The kernel bodies must be indistinguishable at tree scale too: a grouped
// walk over a Plummer sample (groups of up to 80 and leaves of up to 13:
// eight-lane blocks with four-lane tails of every length) digests to the
// same pinned value from the Go loops and from every width the CPU has. The
// digest one walk per leaf is the one pinned before sink groups (ISSUE 24).
func TestFallbackDigestMatchesAssembly(t *testing.T) {
	pos, mass := plummer(19, 3000)
	tr, err := htree.Build(pos, mass, htree.Options{MaxLeaf: 13})
	if err != nil {
		t.Fatal(err)
	}
	const want, wantLeaves = 0xc30c8182755092a8, 0x58c941f46c2fbc55
	gravity.EachISA(t, func(t *testing.T) {
		acc, pot, _ := tr.AccelAllGrouped(0.7, 0.01, false, gravity.Float64, 2)
		if d := digest(acc, pot); runtime.GOARCH == "amd64" && d != want {
			t.Fatalf("digest %#x, want %#x", d, uint64(want))
		}
		if d := digest(leafForces(tr, 0.7, 0.01)); runtime.GOARCH == "amd64" && d != wantLeaves {
			t.Fatalf("digest one walk per leaf %#x, want %#x", d, uint64(wantLeaves))
		}
	})
}

// The metamorphic relation of htree.TestGroupedForcesScaleExactly at every
// width: lengths (softening included) times 2^k and masses times 2^3k scale
// every acceleration by exactly 2^k and every potential by 2^2k — the
// reciprocal square root's seed halves the exponent exactly and its Newton
// steps keep the factor — and the bits do not depend on the width.
func TestWidthsScaleExactly(t *testing.T) {
	pos, mass := plummer(20, 2000)
	forces := func(k int) ([]vec.V3, []float64) {
		spos, smass := make([]vec.V3, len(pos)), make([]float64, len(pos))
		for i := range pos {
			spos[i], smass[i] = pos[i].Scale(math.Ldexp(1, k)), math.Ldexp(mass[i], 3*k)
		}
		tr, err := htree.Build(spos, smass, htree.Options{MaxLeaf: 16})
		if err != nil {
			t.Fatal(err)
		}
		acc, pot, _ := tr.AccelAllGrouped(0.7, math.Ldexp(0.01, k), false, gravity.Float64, 2)
		return acc, pot
	}
	var first uint64
	gravity.EachISA(t, func(t *testing.T) {
		acc, pot := forces(0)
		if d := digest(acc, pot); first == 0 {
			first = d
		} else if d != first {
			t.Fatalf("digest %#x, the Go loops' is %#x", d, first)
		}
		for _, k := range []int{-9, 5, 31} {
			sacc, spot := forces(k)
			for i := range acc {
				if sacc[i] != acc[i].Scale(math.Ldexp(1, k)) || spot[i] != math.Ldexp(pot[i], 2*k) {
					t.Fatalf("k=%d: body %d: (%v, %v), want exactly 2^k x %v and 2^2k x %v", k, i, sacc[i], spot[i], acc[i], pot[i])
				}
			}
		}
	})
}

// Two steps of the distributed engine on three ranks — fetched cells and
// bodies on the lists, forces fed back through the integrator — end in the
// same bits at every width.
func TestWidthsThroughCoreRun(t *testing.T) {
	ics := core.PlummerSphere(rand.New(rand.NewSource(7)), 1500, 1.0)
	cluster := machine.SpaceSimulator(netsim.ProfileLAM)
	var first uint64
	gravity.EachISA(t, func(t *testing.T) {
		res := core.Run(core.RunConfig{
			Cluster: cluster, Procs: 3, Steps: 2, GatherBodies: true,
			Opt: core.Options{Theta: 0.7, Eps: 0.01, DT: 0.005},
		}, ics)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		pos, vel := make([]vec.V3, len(res.Bodies)), make([]float64, len(res.Bodies))
		for i, b := range res.Bodies {
			pos[i], vel[i] = b.Pos, b.Vel.Norm2()
		}
		if d := digest(pos, vel); first == 0 {
			first = d
		} else if d != first {
			t.Fatalf("digest of the final bodies %#x, the Go loops' is %#x", d, first)
		}
	})
}
