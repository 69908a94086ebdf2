package gravity

import "spacesim/internal/vec"

// List is one bucket's interaction list, by reference: accepted cells as
// pointers to their multipoles, direct bodies as segments of []Source. The
// payload stays where it is — in the tree, in the replicated slab, in a
// fetch reply — and must not change while a list that names it is in use;
// gathering a list copies no multipole and no body.
type List struct {
	Cells []*Multipole
	Segs  [][]Source
}

// Reset empties the list, keeping the backing arrays (and dropping what
// they pointed at).
func (l *List) Reset() {
	clear(l.Cells)
	clear(l.Segs)
	l.Cells, l.Segs = l.Cells[:0], l.Segs[:0]
}

// Bodies returns the number of direct bodies on the list.
func (l *List) Bodies() int {
	n := 0
	for _, seg := range l.Segs {
		n += len(seg)
	}
	return n
}

// Evaluator applies one bucket's interaction list to every sink in the
// bucket, accumulating into (ax, ay, az, pot). This is the evaluation half
// of the grouped traversal, shared by the serial tree, the parallel engine
// and the out-of-core path. It holds no state beyond its two settings; the
// zero value is ready to use and evaluates the seed semantics (libm cells +
// libm bodies) bit-identically.
type Evaluator struct {
	// Eps is the Plummer softening length.
	Eps float64
	// UseKarp selects the Karp reciprocal sqrt for the body kernel (cells
	// always use libm).
	UseKarp bool
}

// Eval evaluates the list: cells first, then bodies, each in list order.
// The sink arrays and the four accumulator arrays must share one length.
func (e *Evaluator) Eval(l *List, sx, sy, sz, ax, ay, az, pot []float64) {
	eps2 := e.Eps * e.Eps
	cellKernelLibm(l.Cells, sx, sy, sz, eps2, ax, ay, az, pot)
	if e.UseKarp {
		bodyKernelKarp(l.Segs, sx, sy, sz, eps2, ax, ay, az, pot)
	} else {
		bodyKernelLibm(l.Segs, sx, sy, sz, eps2, ax, ay, az, pot)
	}
}

// EvalList is Eval for a list the caller owns row by row: the cells'
// rows referenced in order, the bodies' as one segment.
func (e *Evaluator) EvalList(cells *MultipoleSoA, src *SoA, sx, sy, sz, ax, ay, az, pot []float64) {
	segs := [1][]Source{src.rows}
	e.Eval(&List{Cells: cells.Refs(), Segs: segs[:]}, sx, sy, sz, ax, ay, az, pot)
}

// EvalListReference is the seed evaluation kept verbatim — scalar
// Multipole.AccelAt per (cell, sink) plus the Go body loop over the bodies
// as one segment — as the oracle both bodies of the production kernels are
// pinned bit-identical against. (Under useKarp the body half is the
// production loop itself: the Karp kernel has one body.)
func EvalListReference(cells *MultipoleSoA, src *SoA, sx, sy, sz []float64, eps float64, useKarp bool, ax, ay, az, pot []float64) {
	for ci := 0; ci < cells.Len(); ci++ {
		m := cells.At(ci)
		for j := range sx {
			a, p := m.AccelAt(vec.V3{sx[j], sy[j], sz[j]}, eps)
			ax[j] += a[0]
			ay[j] += a[1]
			az[j] += a[2]
			pot[j] += p
		}
	}
	eps2 := eps * eps
	segs := [][]Source{src.rows}
	if useKarp {
		bodyKernelKarp(segs, sx, sy, sz, eps2, ax, ay, az, pot)
	} else {
		bodyKernelLibmGo(segs, sx, sy, sz, eps2, ax, ay, az, pot)
	}
}
