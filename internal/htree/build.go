package htree

import (
	"fmt"
	"math"
	"sort"

	"spacesim/internal/gravity"
	"spacesim/internal/key"
	"spacesim/internal/obs"
	"spacesim/internal/par"
	"spacesim/internal/vec"
)

// The parallel construction pipeline. Build runs four phases:
//
//  1. key:   Morton-key every body (embarrassingly parallel);
//  2. sort:  stable parallel LSD radix sort of the keys (key.Sorter), then
//            gather bodies into tree order through the permutation;
//  3. build: split the sorted array into subtree tasks at the top key
//            levels and build them concurrently in a worker pool;
//  4. merge: concatenate the per-task cell runs into the slab, index the
//            hash table, and fill the skeleton cells above the task
//            frontier bottom-up by combining daughter multipoles.
//
// Bit-identity across worker counts: the radix sort's output permutation is
// a pure function of the keys (see keysort.go), the task frontier is derived
// from the sorted array by the same leaf test and binary-search partition
// the serial recursion uses, every task cell is a pure function of its body
// range (computed by the exact serial per-cell code), and every skeleton
// cell combines its daughters in octant order exactly as a serial recursion
// returning through that cell would. Worker scheduling decides only *who*
// computes a cell, never *what* is computed or in which arithmetic order —
// so accelerations, potentials, and every stored float are identical for
// any Workers setting, including the serial reference path.

// Arena holds every reusable buffer of the build pipeline: key and body
// storage, radix-sort scratch, the cell slab and hash index, task lists,
// and per-worker leaf scratch. Passing the same Arena to successive builds
// makes steady-state per-step rebuilds allocation-free.
//
// An Arena is exclusive state: it must not be shared by concurrent builds,
// and building with it invalidates any Tree previously built from it (the
// new tree takes over the backing storage). The zero value is ready to use.
type Arena struct {
	sorter  key.Sorter
	keys    []key.K
	bodies  []Body
	src     []gravity.Source
	store   cellStore
	tasks   []buildTask
	skel    []skelCell
	workers []buildWorker
	groups  []*Cell

	pos  []vec.V3
	mass []float64
}

// PosMassScratch returns reusable position/mass buffers of length n for
// staging a Build call's inputs (callers that must copy out of an
// array-of-structs layout every step, like the distributed code, reuse
// these instead of allocating). The buffers are only read during Build, so
// they may be refilled for the next build of the same arena.
func (a *Arena) PosMassScratch(n int) ([]vec.V3, []float64) {
	if cap(a.pos) < n {
		a.pos = make([]vec.V3, n)
		a.mass = make([]float64, n)
	}
	a.pos, a.mass = a.pos[:n], a.mass[:n]
	return a.pos, a.mass
}

// buildTask is one subtree assignment: cell k over Bodies[lo:hi]. Workers
// claim tasks through par.For and record where the task's cells landed in
// their private buffer (worker/off/n) for the merge phase.
type buildTask struct {
	k      key.K
	lo, hi int
	worker int32
	off    int32
	n      int32
}

// skelCell is an internal cell above the task frontier, recorded during
// task planning (in expansion order, so children always appear after their
// parent) and filled bottom-up in the merge phase.
type skelCell struct {
	k      key.K
	lo, hi int
}

// buildWorker is one worker's private state: the cells it has built.
type buildWorker struct {
	cells []Cell
}

// buildGrain is the smallest task worth splitting further during planning:
// below this, per-task scheduling overhead beats any parallelism win.
const buildGrain = 2048

// Build constructs the tree for the given positions and masses.
func Build(pos []vec.V3, mass []float64, opt Options) (*Tree, error) {
	if len(pos) != len(mass) {
		return nil, fmt.Errorf("htree: %d positions but %d masses", len(pos), len(mass))
	}
	if len(pos) == 0 {
		return nil, fmt.Errorf("htree: empty body set")
	}
	if opt.MaxLeaf <= 0 {
		opt.MaxLeaf = 8
	}
	lo, size := opt.BoxLo, opt.BoxSize
	if size == 0 {
		lo, size = BoundingCube(pos)
	}
	n := len(pos)
	workers := par.Width(opt.Workers, n)
	ar := opt.Arena
	if ar == nil {
		ar = &Arena{}
	}
	t := &Tree{
		BoxLo:      lo,
		BoxSize:    size,
		MaxLeaf:    opt.MaxLeaf,
		forceSplit: opt.ForceSplit,
	}
	hostNow := opt.Obs.HostNow

	// Phase 1: parallel Morton keying.
	h0 := hostNow()
	if cap(ar.keys) < n {
		ar.keys = make([]key.K, n)
	}
	ar.keys = ar.keys[:n]
	keys := ar.keys
	// The keying and the gather split [0, n) into one chunk per worker, at
	// most one per buildGrain bodies, chunk c being [n*c/chunks,
	// n*(c+1)/chunks).
	chunks := par.Width(workers, (n+buildGrain-1)/buildGrain)
	par.For(chunks, workers, func(_, c int) {
		klo, khi := n*c/chunks, n*(c+1)/chunks
		for i := klo; i < khi; i++ {
			keys[i] = key.FromPosition(pos[i], lo, size)
		}
	})

	// Phase 2: radix sort the keys, then gather bodies into tree order.
	h1 := hostNow()
	perm := ar.sorter.SortPerm(keys, workers)
	if cap(ar.bodies) < n {
		ar.bodies = make([]Body, n)
		ar.src = make([]gravity.Source, n)
	}
	ar.bodies, ar.src = ar.bodies[:n], ar.src[:n]
	bodies, src := ar.bodies, ar.src
	par.For(chunks, workers, func(_, c int) {
		blo, bhi := n*c/chunks, n*(c+1)/chunks
		for i := blo; i < bhi; i++ {
			p := perm[i]
			bodies[i] = Body{Pos: pos[p], Mass: mass[p], Key: keys[p], ID: int(p)}
			src[i] = gravity.Source{Pos: pos[p], Mass: mass[p]}
		}
	})
	t.Bodies, t.src = bodies, src

	// Phase 3: plan subtree tasks and build them, each worker appending
	// the cells of the tasks it claims to its own buffer. The workers
	// inherit the caller's profiler labels (core builds under its rank's
	// phase=tree-construct).
	h2 := hostNow()
	tasks, skel := t.planTasks(ar, workers)
	nw := par.Width(workers, len(tasks))
	if len(ar.workers) < nw {
		ar.workers = append(ar.workers, make([]buildWorker, nw-len(ar.workers))...)
	}
	ws := ar.workers[:nw]
	for w := range ws {
		ws[w].cells = ws[w].cells[:0]
	}
	par.For(len(tasks), workers, func(w, i int) {
		bw, tk := &ws[w], &tasks[i]
		tk.worker = int32(w)
		tk.off = int32(len(bw.cells))
		bw.buildRange(t, tk.k, tk.lo, tk.hi)
		tk.n = int32(len(bw.cells)) - tk.off
	})

	// Phase 4: merge — assemble the slab, index it, fill the skeleton.
	h3 := hostNow()
	total := 0
	for i := range tasks {
		total += int(tasks[i].n)
	}
	cs := &ar.store
	cs.reset(total + len(skel))
	cs.cells = cs.cells[:total]
	off := 0
	for i := range tasks {
		tk := &tasks[i]
		copy(cs.cells[off:off+int(tk.n)], ws[tk.worker].cells[tk.off:tk.off+tk.n])
		off += int(tk.n)
	}
	for i := range cs.cells {
		cs.insert(int32(i))
	}
	for i := len(skel) - 1; i >= 0; i-- {
		sk := &skel[i]
		var parts [8]gravity.Multipole
		var kids [8]int32
		np := 0
		var mask uint8
		idx := int32(len(cs.cells))
		for oct := 0; oct < 8; oct++ {
			if ci := cs.find(sk.k.Child(oct)); ci >= 0 {
				mask |= 1 << uint(oct)
				parts[np] = cs.cells[ci].Mp
				kids[np] = ci - idx
				np++
			}
		}
		mp := gravity.Combine(parts[:np]...)
		cs.cells = append(cs.cells, Cell{
			Key: sk.k, Mp: mp, N: sk.hi - sk.lo, Lo: sk.lo, Hi: sk.hi,
			ChildMask: mask, kids: kids,
		})
		cs.cells[idx].Bmax = math.Sqrt(farthest2(t.Bodies, cs.cells, int(idx), mp.COM, 0))
		cs.insert(idx)
	}
	t.store = *cs
	t.recordGroups(ar.groups[:0])
	ar.groups = t.groups
	h4 := hostNow()

	if o := opt.Obs; o != nil {
		reg := o.Reg
		reg.Counter("htree.builds").Inc()
		reg.Counter("htree.build.cells").Add(int64(len(cs.cells)))
		t.SetObs(o)
		o.HostSpan(obs.HostBuild, "htree", "key", h0, h1)
		o.HostSpan(obs.HostBuild, "htree", "sort", h1, h2)
		o.HostSpan(obs.HostBuild, "htree", "build", h2, h3)
		o.HostSpan(obs.HostBuild, "htree", "merge", h3, h4)
	}
	return t, nil
}

// planTasks derives the subtree task frontier from the sorted body array.
// Starting from the root, it repeatedly splits the largest splittable task
// into its daughter ranges (recording the split cell as a skeleton cell)
// until there are enough tasks to keep the pool busy or nothing worth
// splitting remains. The frontier depends only on the body data and the
// worker *count*, never on scheduling; and since a cell's content is a pure
// function of its range, even a different frontier (a different Workers
// value) yields the same cells.
func (t *Tree) planTasks(ar *Arena, workers int) ([]buildTask, []skelCell) {
	tasks := ar.tasks[:0]
	skel := ar.skel[:0]
	tasks = append(tasks, buildTask{k: key.Root, lo: 0, hi: len(t.Bodies)})
	if workers > 1 {
		target := 4 * workers
		for len(tasks) < target {
			best, bestSz := -1, buildGrain-1
			for i := range tasks {
				sz := tasks[i].hi - tasks[i].lo
				if sz > bestSz && !t.isLeafRange(tasks[i].k, tasks[i].lo, tasks[i].hi) {
					best, bestSz = i, sz
				}
			}
			if best < 0 {
				break
			}
			tk := tasks[best]
			tasks[best] = tasks[len(tasks)-1]
			tasks = tasks[:len(tasks)-1]
			skel = append(skel, skelCell{k: tk.k, lo: tk.lo, hi: tk.hi})
			start := tk.lo
			for oct := 0; oct < 8; oct++ {
				ck := tk.k.Child(oct)
				end := t.childEnd(ck, start, tk.hi)
				if end > start {
					tasks = append(tasks, buildTask{k: ck, lo: start, hi: end})
				}
				start = end
			}
		}
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].lo < tasks[j].lo })
	ar.tasks, ar.skel = tasks, skel
	return tasks, skel
}

// isLeafRange is the serial leaf test: a range becomes a bucket when it
// fits MaxLeaf bodies or bottoms out at MaxLevel, unless ForceSplit demands
// subdivision (and a deeper level exists).
func (t *Tree) isLeafRange(k key.K, lo, hi int) bool {
	mustSplit := t.forceSplit != nil && t.forceSplit(k) && k.Level() < key.MaxLevel
	return (hi-lo <= t.MaxLeaf || k.Level() >= key.MaxLevel) && !mustSplit
}

// childEnd returns the end of daughter cell ck's body range that starts at
// start, searching within [start, hi) of the key-sorted body array.
func (t *Tree) childEnd(ck key.K, start, hi int) int {
	loKey, hiKey := ck.BodyKeyRange()
	if hiKey <= loKey {
		// The range's upper bound overflowed 64 bits: ck is the rightmost
		// cell of its level, so it takes everything left.
		return hi
	}
	// end = first body with key >= hiKey
	return start + sort.Search(hi-start, func(i int) bool {
		return t.Bodies[start+i].Key >= hiKey
	})
}

// buildRange recursively constructs the cells for k covering Bodies[lo:hi]
// into the worker's private buffer, in pre-order (parent before daughters,
// daughters in octant order — so leaves land in ascending body order).
//
// The per-cell arithmetic is bit-identical to the serial reference: the
// leaf multipole mirrors gravity.FromBodies term for term (reading bodies
// straight from the sorted array instead of staging copies), and every Bmax
// takes the maximum of squared distances with one final square root —
// math.Sqrt is correctly rounded, hence monotone, so
// sqrt(max d^2) == max sqrt(d^2) exactly.
func (bw *buildWorker) buildRange(t *Tree, k key.K, lo, hi int) {
	ci := len(bw.cells)
	bw.cells = append(bw.cells, Cell{Key: k, N: hi - lo, Lo: lo, Hi: hi})
	if t.isLeafRange(k, lo, hi) {
		bodies := t.Bodies[lo:hi]
		var mp gravity.Multipole
		for i := range bodies {
			mp.M += bodies[i].Mass
			mp.COM = mp.COM.AddScaled(bodies[i].Mass, bodies[i].Pos)
		}
		if mp.M > 0 {
			mp.COM = mp.COM.Scale(1 / mp.M)
		}
		// Quadrupole accumulation fused with the Bmax scan: r2 here is the
		// exact squared distance the reference's maxDist computes.
		bm2 := 0.0
		for i := range bodies {
			m := bodies[i].Mass
			d := bodies[i].Pos.Sub(mp.COM)
			r2 := d.Norm2()
			mp.Q.AddOuterScaled(3*m, d)
			mp.Q[0] -= m * r2
			mp.Q[1] -= m * r2
			mp.Q[2] -= m * r2
			if r2 > bm2 {
				bm2 = r2
			}
		}
		c := &bw.cells[ci]
		c.Leaf = true
		c.Mp = mp
		c.Bmax = math.Sqrt(bm2)
		return
	}
	// Partition the sorted range by daughter key ranges.
	start := lo
	var parts [8]gravity.Multipole
	var kids [8]int32
	np := 0
	var mask uint8
	for oct := 0; oct < 8; oct++ {
		ck := k.Child(oct)
		end := t.childEnd(ck, start, hi)
		if end > start {
			childCi := len(bw.cells)
			bw.buildRange(t, ck, start, end)
			mask |= 1 << uint(oct)
			parts[np] = bw.cells[childCi].Mp
			kids[np] = int32(childCi - ci)
			np++
		}
		start = end
	}
	mp := gravity.Combine(parts[:np]...)
	c := &bw.cells[ci]
	c.ChildMask = mask
	c.kids = kids
	c.Mp = mp
	c.Bmax = math.Sqrt(farthest2(t.Bodies, bw.cells, ci, mp.COM, 0))
}

// bmaxMargin widens the bound on a daughter's bodies far beyond the few ulps
// its rounded distances can be off, and pruneFloor is the running maximum
// below which nothing is skipped: under it a square may have underflowed and
// its error is absolute, not relative.
const (
	bmaxMargin = 1 + 1e-9
	pruneFloor = 0x1p-900
)

// farthest2 returns the larger of m and the largest squared distance from c
// of a body below cells[ci] (daughters at their relative links, Bmax already
// set): bit for bit what a scan of the cell's whole body range finds. Every
// body of daughter k lies within |c − COM_k| + Bmax_k of c, so daughters are
// visited by that bound, largest first, and the first whose bound (widened
// by bmaxMargin) squared is below the running maximum ends the visit: it and
// every later daughter hold no farther body. Only the order of the scan
// changes, and the maximum of a set does not depend on it.
func farthest2(bodies []Body, cells []Cell, ci int, c vec.V3, m float64) float64 {
	cl := &cells[ci]
	if cl.Leaf {
		for i := cl.Lo; i < cl.Hi; i++ {
			if d2 := bodies[i].Pos.Sub(c).Norm2(); d2 > m {
				m = d2
			}
		}
		return m
	}
	var kid [8]int
	var bound2 [8]float64
	nk := 0
	for ; nk < 8 && cl.kids[nk] != 0; nk++ {
		k := ci + int(cl.kids[nk])
		b := (cells[k].Mp.COM.Dist(c) + cells[k].Bmax) * bmaxMargin
		// Insertion by descending bound; ties keep octant order.
		j := nk
		for ; j > 0 && bound2[j-1] < b*b; j-- {
			kid[j], bound2[j] = kid[j-1], bound2[j-1]
		}
		kid[j], bound2[j] = k, b*b
	}
	for j := 0; j < nk; j++ {
		if bound2[j] < m && m >= pruneFloor {
			break
		}
		m = farthest2(bodies, cells, kid[j], c, m)
	}
	return m
}
