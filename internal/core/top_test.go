package core

import (
	"math"
	"math/rand"
	"testing"

	"spacesim/internal/htree"
	"spacesim/internal/key"
	"spacesim/internal/mp"
	"spacesim/internal/obs"
	"spacesim/internal/vec"
)

// cellBits is everything a cell of a slab holds in comparable form, floats
// as their bit patterns, daughter links as the indices they lead to, with
// the owner the top keeps beside it.
type cellBits struct {
	key       key.K
	mp        [10]uint64
	bmax      uint64
	n, lo, hi int
	owner     int32
	leaf      bool
	mask      uint8
	kids      [8]int32
}

func bitsOf(c *htree.Cell, at, owner int32) cellBits {
	b := cellBits{
		key: c.Key, bmax: math.Float64bits(c.Bmax), n: c.N, lo: c.Lo, hi: c.Hi,
		owner: owner, leaf: c.Leaf, mask: c.ChildMask,
	}
	copy(b.kids[:], c.Daughters(at, nil))
	b.mp[0] = math.Float64bits(c.Mp.M)
	for i, x := range c.Mp.COM {
		b.mp[1+i] = math.Float64bits(x)
	}
	for i, x := range c.Mp.Q {
		b.mp[4+i] = math.Float64bits(x)
	}
	return b
}

// The replicated top and the splitter table are each one array for the whole
// world, built by whichever rank left the allgather first. Every rank gathers
// the branches again and runs the builder on its own copy: the shared top
// must equal that cell for cell, bit for bit, on few ranks, on several, and on
// more ranks than a module holds with a handful of bodies each.
func TestSharedTopEqualsEveryRanksOwnBuild(t *testing.T) {
	for _, tc := range []struct{ p, n int }{{3, 500}, {8, 1200}, {64, 640}} {
		ics := PlummerSphere(rand.New(rand.NewSource(50)), tc.n, 1.0)
		tops, tables := make([]*topTree, tc.p), make([]*key.K, tc.p)
		mp.Run(testCluster(), tc.p, func(r *mp.Rank) {
			lo, hi := tc.n*r.ID()/tc.p, tc.n*(r.ID()+1)/tc.p
			bodies, splitters, boxLo, boxSize := Decompose(r, append([]Body(nil), ics[lo:hi]...))
			dt := BuildDistributed(r, bodies, splitters, boxLo, boxSize, Options{Theta: 0.6, Eps: 0.02})
			tops[r.ID()], tables[r.ID()] = dt.top, &splitters[0]

			mine := dt.branches()
			branches := make([][]htree.Cell, tc.p)
			for i, g := range r.AllgatherAny(mine, int64(len(mine)*cellWireBytes)) {
				branches[i] = g.([]htree.Cell)
			}
			want := buildTop(branches)
			if len(want.cells) != len(dt.top.cells) || len(dt.top.owner) != len(dt.top.cells) {
				t.Errorf("p=%d rank %d: shared top has %d cells and %d owners, the rank's own build %d",
					tc.p, r.ID(), len(dt.top.cells), len(dt.top.owner), len(want.cells))
				return
			}
			for i := range want.cells {
				at := int32(i)
				if got, w := bitsOf(&dt.top.cells[i], at, dt.top.owner[i]), bitsOf(&want.cells[i], at, want.owner[i]); got != w {
					t.Errorf("p=%d rank %d: top cell %d: shared %+v, own build %+v", tc.p, r.ID(), i, got, w)
					return
				}
			}
		})
		for id := range tops {
			if tops[id] != tops[0] || tables[id] != tables[0] {
				t.Errorf("p=%d: rank %d holds its own top or splitter table, not the world's", tc.p, id)
			}
		}
	}
}

// One top and one splitter table per force evaluation, however many ranks
// read them and however many host threads the ranks run on; and with ranks on
// four threads, building and reading them side by side (this is the case
// `go test -race` is for), every body comes out where one thread puts it.
func TestOneTopBuildPerEvaluation(t *testing.T) {
	ics := PlummerSphere(rand.New(rand.NewSource(51)), 1600, 1.0)
	run := func(procs, steps, width int) (res Result) {
		o := obs.New(false)
		atWidth(width, func() {
			res = Run(RunConfig{
				Cluster: testCluster().WithObs(o), Procs: procs, Steps: steps,
				Opt:          Options{Theta: 0.6, Eps: 0.02, DT: 0.005},
				GatherBodies: true,
			}, ics)
		})
		if res.Err != nil {
			t.Fatalf("procs=%d width=%d: %v", procs, width, res.Err)
		}
		c := o.Snapshot().Counters
		evals := int64(steps + 1)
		if c["core.top.builds"] != evals || c["core.splitters.builds"] != evals {
			t.Errorf("procs=%d width=%d: %d top builds and %d splitter tables for %d force evaluations",
				procs, width, c["core.top.builds"], c["core.splitters.builds"], evals)
		}
		if c["core.top.cells"] < evals*int64(procs) {
			t.Errorf("procs=%d: core.top.cells = %d over %d tops of at least one branch per rank", procs, c["core.top.cells"], evals)
		}
		return res
	}
	run(8, 2, 1)
	one, four := run(16, 3, 1), run(16, 3, 4)
	for i := range one.Bodies {
		if one.Bodies[i].Pos != four.Bodies[i].Pos || one.Bodies[i].Vel != four.Bodies[i].Vel {
			t.Fatalf("body %d: %+v at width one, %+v at four", i, one.Bodies[i], four.Bodies[i])
		}
	}
}

// Worlds with next to nothing in them, where rank 0 — whose payload carries
// the world's top and splitter table — or most ranks hold no body at all.
func TestDegenerateWorlds(t *testing.T) {
	two := []Body{
		{Pos: vec.V3{-0.5, 0, 0.1}, Vel: vec.V3{0, -0.3, 0}, Mass: 0.6, ID: 0},
		{Pos: vec.V3{0.5, 0.2, 0}, Vel: vec.V3{0, 0.45, 0}, Mass: 0.4, ID: 1},
	}
	for n := 0; n <= 2; n++ {
		var serial []Energies
		for _, p := range []int{1, 3, 8} {
			res := Run(RunConfig{
				Cluster: testCluster(), Procs: p, Steps: 2,
				Opt:          Options{Theta: 0.6, Eps: 0.02, DT: 0.005},
				GatherBodies: true,
			}, append([]Body(nil), two[:n]...))
			if res.Err != nil || res.CompletedSteps != 2 || len(res.EnergyHistory) != 3 {
				t.Fatalf("n=%d p=%d: err %v, %d steps, %d energy records", n, p, res.Err, res.CompletedSteps, len(res.EnergyHistory))
			}
			if len(res.Bodies) != n {
				t.Fatalf("n=%d p=%d: %d bodies came back", n, p, len(res.Bodies))
			}
			for i, b := range res.Bodies {
				if b.ID != int64(i) {
					t.Errorf("n=%d p=%d: body %d came back with ID %d", n, p, i, b.ID)
				}
			}
			for s, e := range res.EnergyHistory {
				if math.IsNaN(e.Total()) || math.IsInf(e.Total(), 0) {
					t.Errorf("n=%d p=%d: step %d energy %v", n, p, s, e.Total())
				}
				if p == 1 {
					continue
				}
				if d := math.Abs(e.Total() - serial[s].Total()); d > 1e-15 {
					t.Errorf("n=%d p=%d: step %d energy %v, on one rank %v", n, p, s, e.Total(), serial[s].Total())
				}
			}
			if p == 1 {
				serial = res.EnergyHistory
			}
		}
	}
}
