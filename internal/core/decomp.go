package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"spacesim/internal/htree"
	"spacesim/internal/key"
	"spacesim/internal/mp"
	"spacesim/internal/vec"
)

// bodyWireBytes is the accounted wire size of one body (pos, vel, mass,
// work, key, id).
const bodyWireBytes = 96

// globalBox agrees on the bounding cube of all bodies across ranks: the cube
// ValidateBodies checks, of every rank's bodies (a unit cube when there are
// none). A NaN coordinate anywhere makes it NaN everywhere.
func globalBox(r *mp.Rank, bodies []Body) (vec.V3, float64) {
	inf := math.Inf(1)
	mn := vec.V3{inf, inf, inf}
	mx := vec.V3{-inf, -inf, -inf}
	for i := range bodies {
		mn = vec.Min(mn, bodies[i].Pos)
		mx = vec.Max(mx, bodies[i].Pos)
	}
	// One reduction: the minimum of -hi is -(the maximum of hi), exactly.
	b := r.Allreduce([]float64{mn[0], mn[1], mn[2], -mx[0], -mx[1], -mx[2]}, mp.OpMin)
	lo, hi := vec.V3{b[0], b[1], b[2]}, vec.V3{-b[3], -b[4], -b[5]}
	if lo[0] > hi[0] { // no bodies anywhere
		return htree.BoundingCube([]vec.V3{{}})
	}
	return htree.BoundingCube([]vec.V3{lo, hi})
}

// cubeError says why no run can integrate bodies in the cube of this side
// from lo: a side outside [2^-400, 2^400] (squared separations near the ends
// of the double range) or a corner that is not finite.
func cubeError(lo vec.V3, side float64) error {
	if side >= minBoxSide && side <= maxBoxSide && finite(lo[0]) && finite(lo[1]) && finite(lo[2]) {
		return nil
	}
	return fmt.Errorf("bounding cube of the bodies, side %g from %v, is outside [2^-400, 2^400]", side, lo)
}

// Decompose implements the paper's domain decomposition: "practically
// identical to a parallel sorting algorithm, with the modification that the
// amount of data that ends up in each processor is weighted by the work
// associated with each item." Bodies are key-labeled in the global box,
// sample-sorted on keys with work-weighted splitters, sent to the ranks whose
// new key range they fall in, and returned locally sorted. The splitters
// slice (length P-1) and the box are also returned; rank p owns keys in
// [splitters[p-1], splitters[p]). The splitters are one slice for the whole
// world (allgatherOnce): never write it. Decompose takes ownership of bodies:
// it reorders them and hands runs of the slice to other ranks by reference,
// so the caller must not touch it again.
func Decompose(r *mp.Rank, bodies []Body) (local []Body, splitters []key.K, boxLo vec.V3, boxSize float64) {
	return decompose(r, bodies, nil)
}

// decompose is Decompose building the new local array, when there are
// several ranks, in into's storage, which must not overlap bodies. Run passes
// the array the previous step's decompose took: the ranks that received runs
// of it copied them out within that decompose, before entering this one's
// collectives.
func decompose(r *mp.Rank, bodies, into []Body) (local []Body, splitters []key.K, boxLo vec.V3, boxSize float64) {
	p := r.Size()
	boxLo, boxSize = globalBox(r, bodies)
	endKey := r.Span("phase", "tree-key")
	for i := range bodies {
		bodies[i].Key = key.FromPosition(bodies[i].Pos, boxLo, boxSize)
		if bodies[i].Work <= 0 {
			bodies[i].Work = 1
		}
	}
	// Charge the key generation: ~30 flop-equivalents of integer bit
	// spreading per body over one streamed pass.
	n := len(bodies)
	r.Charge(30*float64(n), 0.5, 16*float64(n))
	endKey()
	endSort := r.Span("phase", "tree-sort")
	sortBodiesByKey(bodies)
	// Charge the local sort: ~ n log n compares with ~2 words traffic each.
	if n > 1 {
		cmp := float64(n) * logf(n)
		r.Charge(2*cmp, 0.5, 16*cmp)
	}
	endSort()

	if p == 1 {
		return bodies, nil, boxLo, boxSize
	}

	// Regular sampling weighted by work: each rank emits s samples at equal
	// cumulative-work positions, each carrying its work quantum. The rank's
	// key span rides along, so that every rank learns who sends to whom.
	const s = 32
	localWork := 0.0
	for i := range bodies {
		localWork += bodies[i].Work
	}
	mine := splitChunk{samples: make([]sample, 0, s)}
	if n > 0 {
		mine.first, mine.last, mine.nonempty = bodies[0].Key, bodies[n-1].Key, true
		quantum := localWork / float64(s)
		cum, next := 0.0, quantum/2
		j := 0
		for i := range bodies {
			cum += bodies[i].Work
			for cum >= next && j < s {
				mine.samples = append(mine.samples, sample{k: bodies[i].Key, w: quantum})
				next += quantum
				j++
			}
		}
	}
	plan := allgatherOnce(r, mine, int64(16*len(mine.samples)+16), func(chunks []splitChunk) *splitPlan {
		r.WorldObs().Reg.Counter("core.splitters.builds").Inc()
		return newSplitPlan(chunks)
	})
	splitters = plan.splitters

	// Exchange. The bodies are key-sorted and the splitters ascend, so what
	// goes to each rank is a contiguous run, handed over by reference. A rank
	// sends to every rank whose range meets its span, even an empty run, and
	// receives from every rank whose span meets its range: both sides read
	// the pairs off the one plan, and no counts need exchanging.
	me := r.ID()
	var own []Body
	var to []int
	var runs []any
	var sizes []int64
	lo := 0
	for d := plan.reach[me][0]; d <= plan.reach[me][1]; d++ {
		hi := lo
		for hi < n && (d == p-1 || bodies[hi].Key < splitters[d]) {
			hi++
		}
		if d == me {
			own = bodies[lo:hi]
		} else {
			to = append(to, d)
			runs = append(runs, bodies[lo:hi])
			sizes = append(sizes, int64((hi-lo)*bodyWireBytes))
		}
		lo = hi
	}
	var from []int
	for src, rc := range plan.reach {
		if src != me && rc[0] <= me && me <= rc[1] {
			from = append(from, src)
		}
	}
	got := r.Exchange(to, runs, sizes, from)
	total := len(own)
	for _, g := range got {
		total += len(g.([]Body))
	}
	local = append(slices.Grow(into[:0], total), own...)
	for _, g := range got {
		local = append(local, g.([]Body)...)
	}
	endSort = r.Span("phase", "tree-sort")
	sortBodiesByKey(local)
	if m := len(local); m > 1 {
		cmp := float64(m) * logf(m)
		r.Charge(2*cmp, 0.5, 16*cmp)
	}
	endSort()
	return local, splitters, boxLo, boxSize
}

// sample is one of a rank's regular samples: a key and the work it stands for.
type sample struct {
	k key.K
	w float64
}

// splitChunk is a rank's part of the splitter allgather: its samples and,
// when it holds bodies (nonempty), its first and last key.
type splitChunk struct {
	samples     []sample
	first, last key.K
	nonempty    bool
}

// splitPlan is the world's decomposition: the splitters and, for every rank,
// the first and last rank its bodies go to — those whose new key range
// meets its key span (first > last when it holds no bodies).
type splitPlan struct {
	splitters []key.K
	reach     [][2]int
}

// newSplitPlan cuts the splitters from every rank's samples and reads off
// where each rank's span falls.
func newSplitPlan(chunks []splitChunk) *splitPlan {
	samples := make([][]sample, len(chunks))
	for i := range chunks {
		samples[i] = chunks[i].samples
	}
	plan := &splitPlan{splitters: splitterTable(samples), reach: make([][2]int, len(chunks))}
	for i, c := range chunks {
		plan.reach[i] = [2]int{1, 0}
		if c.nonempty {
			plan.reach[i] = [2]int{Owner(plan.splitters, c.first), Owner(plan.splitters, c.last)}
		}
	}
	return plan
}

// splitterTable merges every rank's samples and cuts them into one run of
// equal weight per rank: the keys where one rank's range ends and the next begins.
func splitterTable(samples [][]sample) []key.K {
	p, all := len(samples), slices.Concat(samples...)
	sort.Slice(all, func(i, j int) bool { return all[i].k < all[j].k })
	totalWork := 0.0
	for _, sm := range all {
		totalWork += sm.w
	}
	// Splitters at equal cumulative weight.
	splitters := make([]key.K, 0, p-1)
	target := totalWork / float64(p)
	cum := 0.0
	for _, sm := range all {
		cum += sm.w
		for cum >= target*float64(len(splitters)+1) && len(splitters) < p-1 {
			splitters = append(splitters, sm.k)
		}
	}
	for len(splitters) < p-1 {
		// Degenerate sample set: pad with max key so trailing ranks get
		// (possibly empty) tail ranges.
		splitters = append(splitters, ^key.K(0))
	}
	return splitters
}

// bodySort is sortBodiesByKey's scratch, pooled because Decompose keeps no
// state between calls.
type bodySort struct {
	sorter key.Sorter
	keys   []key.K
}

var bodySorts = sync.Pool{New: func() any { return new(bodySort) }}

// sortBodiesByKey orders bodies by (Key, ID): the stable composite order
// keeps coincident bodies (equal Morton keys) in a deterministic sequence,
// matching the (Key, original-index) order the tree build produces. The keys
// are radix sorted (stable, so an already sorted array stays where it is),
// the bodies moved into place along the permutation's cycles, and each run
// of equal keys ordered by ID.
func sortBodiesByKey(bodies []Body) {
	n := len(bodies)
	s := bodySorts.Get().(*bodySort)
	defer bodySorts.Put(s)
	s.keys = slices.Grow(s.keys[:0], n)[:n]
	for i := range bodies {
		s.keys[i] = bodies[i].Key
	}
	// Position j takes the body at perm[j]; a placed position is marked by
	// perm[j] = j, so every body is copied once and a body in place never.
	perm := s.sorter.SortPerm(s.keys, 1)
	for i := range perm {
		if perm[i] == int32(i) {
			continue
		}
		held := bodies[i]
		j := int32(i)
		for perm[j] != int32(i) {
			k := perm[j]
			bodies[j], perm[j] = bodies[k], j
			j = k
		}
		bodies[j], perm[j] = held, j
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && bodies[hi].Key == bodies[lo].Key {
			hi++
		}
		if hi-lo > 1 {
			slices.SortStableFunc(bodies[lo:hi], func(a, b Body) int { return cmp.Compare(a.ID, b.ID) })
		}
		lo = hi
	}
}

// Owner returns the rank owning a key under the given splitters.
func Owner(splitters []key.K, k key.K) int {
	// first splitter > k determines the rank
	lo, hi := 0, len(splitters)
	for lo < hi {
		mid := (lo + hi) / 2
		if k >= splitters[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func logf(n int) float64 {
	l := 0.0
	for m := n; m > 1; m >>= 1 {
		l++
	}
	return l
}
