package gravity

import "spacesim/internal/vec"

// Evaluator applies one bucket's interaction list — accepted cell
// multipoles in SoA plus a SoA of direct-interaction bodies — to every
// sink in the bucket, accumulating into (ax, ay, az, pot). This is the
// evaluation half of the grouped traversal, shared by the serial tree, the
// parallel engine and the out-of-core path. It owns the float32 scratch of
// the Float32 mode, so one instance per worker keeps the hot path free of
// allocations; the zero value is ready to use and evaluates the seed
// semantics (libm cells + libm bodies, float64) bit-identically.
type Evaluator struct {
	// Eps is the Plummer softening length.
	Eps float64
	// UseKarp selects the Karp reciprocal sqrt for the body kernel (cells
	// always use libm). It applies to Float64 only: the Float32 mode has no
	// Karp kernel and evaluates with the hardware sqrt regardless.
	UseKarp bool
	// Prec selects the accumulation arithmetic (Float64 default).
	Prec Precision

	s32 evalScratch32
}

// EvalList evaluates the list. The sink arrays and the four accumulator
// arrays must share one length.
func (e *Evaluator) EvalList(cells *MultipoleSoA, src *SoA, sx, sy, sz, ax, ay, az, pot []float64) {
	if e.Prec == Float32 {
		e.evalList32(cells, src, sx, sy, sz, ax, ay, az, pot)
		return
	}
	eps2 := e.Eps * e.Eps
	CellBatchLibm(cells, sx, sy, sz, eps2, ax, ay, az, pot)
	if e.UseKarp {
		KernelBatchKarp(sx, sy, sz, src, eps2, ax, ay, az, pot)
	} else {
		KernelBatchLibm(sx, sy, sz, src, eps2, ax, ay, az, pot)
	}
}

// evalScratch32 is the reusable float32 image of one interaction list.
type evalScratch32 struct {
	cx, cy, cz, cm               []float32
	qxx, qyy, qzz, qxy, qxz, qyz []float32
	bx, by, bz, bm               []float32
	sx, sy, sz                   []float32
	ax, ay, az, pp               []float32
}

func grow32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n, n+n/4)
	}
	return buf[:n]
}

// evalList32 converts the list and sinks to float32 once (O(cells +
// bodies + sinks), amortized over the full ns x (nc + nb) evaluation),
// accumulates in single precision, and folds the bucket totals back into
// the float64 outputs.
func (e *Evaluator) evalList32(cells *MultipoleSoA, src *SoA, sx, sy, sz, ax, ay, az, pot []float64) {
	s := &e.s32
	nc, nb, ns := cells.Len(), src.Len(), len(sx)
	s.cx, s.cy, s.cz, s.cm = grow32(s.cx, nc), grow32(s.cy, nc), grow32(s.cz, nc), grow32(s.cm, nc)
	s.qxx, s.qyy, s.qzz = grow32(s.qxx, nc), grow32(s.qyy, nc), grow32(s.qzz, nc)
	s.qxy, s.qxz, s.qyz = grow32(s.qxy, nc), grow32(s.qxz, nc), grow32(s.qyz, nc)
	for i := 0; i < nc; i++ {
		s.cx[i], s.cy[i], s.cz[i], s.cm[i] = float32(cells.CX[i]), float32(cells.CY[i]), float32(cells.CZ[i]), float32(cells.M[i])
		s.qxx[i], s.qyy[i], s.qzz[i] = float32(cells.QXX[i]), float32(cells.QYY[i]), float32(cells.QZZ[i])
		s.qxy[i], s.qxz[i], s.qyz[i] = float32(cells.QXY[i]), float32(cells.QXZ[i]), float32(cells.QYZ[i])
	}
	s.bx, s.by, s.bz, s.bm = grow32(s.bx, nb), grow32(s.by, nb), grow32(s.bz, nb), grow32(s.bm, nb)
	for i := 0; i < nb; i++ {
		s.bx[i], s.by[i], s.bz[i], s.bm[i] = float32(src.X[i]), float32(src.Y[i]), float32(src.Z[i]), float32(src.M[i])
	}
	s.sx, s.sy, s.sz = grow32(s.sx, ns), grow32(s.sy, ns), grow32(s.sz, ns)
	s.ax, s.ay, s.az, s.pp = grow32(s.ax, ns), grow32(s.ay, ns), grow32(s.az, ns), grow32(s.pp, ns)
	for j := 0; j < ns; j++ {
		s.sx[j], s.sy[j], s.sz[j] = float32(sx[j]), float32(sy[j]), float32(sz[j])
		s.ax[j], s.ay[j], s.az[j], s.pp[j] = 0, 0, 0, 0
	}
	ee := float32(e.Eps)
	eps2 := ee * ee
	cellBatch32(s, s.sx, s.sy, s.sz, eps2, s.ax, s.ay, s.az, s.pp)
	kernelBatchLibm32(s.sx, s.sy, s.sz, s.bx, s.by, s.bz, s.bm, eps2, s.ax, s.ay, s.az, s.pp)
	for j := 0; j < ns; j++ {
		ax[j] += float64(s.ax[j])
		ay[j] += float64(s.ay[j])
		az[j] += float64(s.az[j])
		pot[j] += float64(s.pp[j])
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
