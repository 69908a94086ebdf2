package gravity

import "spacesim/internal/vec"

// Evaluator applies one bucket's interaction list — accepted cell
// multipoles in SoA plus a SoA of direct-interaction bodies — to every
// sink in the bucket, accumulating into (ax, ay, az, pot). This is the
// evaluation half of the grouped traversal, shared by the serial tree, the
// parallel engine and the out-of-core path. It holds no state beyond its
// two settings; the zero value is ready to use and evaluates the seed
// semantics (libm cells + libm bodies) bit-identically.
type Evaluator struct {
	// Eps is the Plummer softening length.
	Eps float64
	// UseKarp selects the Karp reciprocal sqrt for the body kernel (cells
	// always use libm).
	UseKarp bool
}

// EvalList evaluates the list. The sink arrays and the four accumulator
// arrays must share one length.
func (e *Evaluator) EvalList(cells *MultipoleSoA, src *SoA, sx, sy, sz, ax, ay, az, pot []float64) {
	eps2 := e.Eps * e.Eps
	CellBatchLibm(cells, sx, sy, sz, eps2, ax, ay, az, pot)
	if e.UseKarp {
		KernelBatchKarp(sx, sy, sz, src, eps2, ax, ay, az, pot)
	} else {
		KernelBatchLibm(sx, sy, sz, src, eps2, ax, ay, az, pot)
	}
}

// EvalListReference is the seed evaluation kept verbatim — scalar
// Multipole.AccelAt per (cell, sink) plus the Go batch body loop — as the
// oracle both bodies of the production kernels are pinned bit-identical
// against. (Under useKarp the body half is the production loop itself: the
// Karp kernel has one body.)
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
	if useKarp {
		KernelBatchKarp(sx, sy, sz, src, eps2, ax, ay, az, pot)
	} else {
		kernelBatchLibmGo(sx, sy, sz, src, eps2, ax, ay, az, pot)
	}
}
