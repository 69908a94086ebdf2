package mp

// Collectives and a clock step that only the tests use: the pinned
// programs of the engine tests run Reduce and Allgather, and the fault tests
// place clocks with AdvanceClock.

// Reduce combines per-rank buffers elementwise with op onto the root, via a
// binomial tree. Non-root ranks return nil. The input is not modified.
func (r *Rank) Reduce(root int, buf []float64, op Op) []float64 {
	n := r.w.n
	acc := append([]float64(nil), buf...)
	if n == 1 {
		return acc
	}
	defer r.collective("reduce")()
	vr := (r.id - root + n) % n
	for bit := 1; bit < n; bit *= 2 {
		if vr&bit != 0 {
			parent := ((vr &^ bit) + root) % n
			r.SendFloats(parent, tagReduce, acc)
			return nil
		}
		child := vr | bit
		if child < n {
			other, _ := r.RecvFloats((child+root)%n, tagReduce)
			r.Charge(float64(len(acc)), 0.5, float64(16*len(acc)))
			for i := range acc {
				acc[i] = op(acc[i], other[i])
			}
		}
	}
	return acc
}

// Allgather collects every rank's chunk on every rank (AllgatherAny). The
// chunk is copied once, as a send would; the slices returned are shared by
// every rank, so none may write them.
func (r *Rank) Allgather(chunk []float64) [][]float64 {
	parts := r.AllgatherAny(append([]float64(nil), chunk...), SizeFloats(len(chunk)))
	out := make([][]float64, len(parts))
	for i, p := range parts {
		out[i] = p.([]float64)
	}
	return out
}

// AdvanceClock moves the clock forward by dt seconds (dt >= 0), to place a
// rank's clock before a fault or a region.
func (r *Rank) AdvanceClock(dt float64) {
	if dt < 0 {
		panic("mp: negative clock advance")
	}
	r.checkFaults()
	r.clock += dt
}
