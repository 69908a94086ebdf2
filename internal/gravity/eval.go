package gravity

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
// of the grouped traversal, shared by the serial tree and the parallel
// engine. It holds no state beyond its setting; the zero value is ready to
// use.
type Evaluator struct {
	// Eps is the Plummer softening length.
	Eps float64
}

// Eval evaluates the list: cells first, then bodies, each in list order.
// The sink arrays and the four accumulator arrays must share one length.
func (e *Evaluator) Eval(l *List, sx, sy, sz, ax, ay, az, pot []float64) {
	eps2 := e.Eps * e.Eps
	cellKernel(l.Cells, sx, sy, sz, eps2, ax, ay, az, pot)
	bodyKernel(l.Segs, sx, sy, sz, eps2, ax, ay, az, pot)
}

// EvalList is Eval for a list the caller owns row by row: the cells'
// rows referenced in order, the bodies' as one segment.
func (e *Evaluator) EvalList(cells *MultipoleSoA, src *SoA, sx, sy, sz, ax, ay, az, pot []float64) {
	segs := [1][]Source{src.rows}
	e.Eval(&List{Cells: cells.Refs(), Segs: segs[:]}, sx, sy, sz, ax, ay, az, pot)
}
