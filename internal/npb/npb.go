// Package npb implements NAS-Parallel-Benchmark-class kernels over the
// virtual-time message-passing layer: CG (conjugate gradient), MG
// (multigrid), FT (3-D FFT), IS (integer sort), EP (embarrassingly
// parallel), and the structured-grid pseudo-applications BT, SP
// (ADI-style directional line solves) and LU (SSOR wavefront).
//
// Each benchmark runs a *real miniature*: a genuinely distributed
// implementation whose numerics are verified (residuals, inverse
// transforms, sortedness), while virtual-time costs — flops, memory
// traffic, and message sizes — are charged at the *accounting size* of the
// requested NPB class. This preserves the communication-to-computation
// ratios that determine the scaling curves of Figures 4 and 5 and the
// Mop/s figures of Tables 3 and 4 without needing class-D memory.
//
// Per-benchmark roofline densities (flops and bytes per point per
// iteration) are calibrated once against the 64-processor class C
// measurements; class D, other processor counts, and the scaling curves
// then follow from the model.
package npb

import (
	"fmt"
)

// Benchmark identifies one NPB kernel.
type Benchmark string

// The NPB kernels reproduced here.
const (
	BT Benchmark = "BT"
	SP Benchmark = "SP"
	LU Benchmark = "LU"
	MG Benchmark = "MG"
	CG Benchmark = "CG"
	FT Benchmark = "FT"
	IS Benchmark = "IS"
	EP Benchmark = "EP"
)

// Class describes a problem size. N is the principal dimension (grid edge
// for grid codes, rows for CG, log2 keys for IS/EP) and Iters the
// iteration count, following NPB 2.4.
type Class struct {
	Name  string
	N     int
	Iters int
}

// Classes returns the NPB 2.4 size table for a benchmark.
func Classes(b Benchmark) map[string]Class {
	switch b {
	case BT, SP:
		return map[string]Class{
			"A": {"A", 64, 200}, "B": {"B", 102, 200}, "C": {"C", 162, 200}, "D": {"D", 408, 250},
		}
	case LU:
		return map[string]Class{
			"A": {"A", 64, 250}, "B": {"B", 102, 250}, "C": {"C", 162, 250}, "D": {"D", 408, 300},
		}
	case MG:
		return map[string]Class{
			"A": {"A", 256, 4}, "B": {"B", 256, 20}, "C": {"C", 512, 20}, "D": {"D", 1024, 50},
		}
	case CG:
		return map[string]Class{
			"A": {"A", 14000, 15}, "B": {"B", 75000, 75}, "C": {"C", 150000, 75}, "D": {"D", 1500000, 100},
		}
	case FT:
		return map[string]Class{
			"A": {"A", 256, 6}, "B": {"B", 512, 20}, "C": {"C", 512, 20}, "D": {"D", 1024, 25},
		}
	case IS:
		return map[string]Class{
			"A": {"A", 23, 10}, "B": {"B", 25, 10}, "C": {"C", 27, 10}, "D": {"D", 31, 10},
		}
	case EP:
		return map[string]Class{
			"A": {"A", 28, 1}, "B": {"B", 30, 1}, "C": {"C", 32, 1}, "D": {"D", 36, 1},
		}
	}
	return nil
}

// density holds the calibrated roofline cost of one benchmark: flops and
// main-memory bytes per grid point (or per row/key) per iteration. The
// bytes column encodes each code's cache behaviour — it is why MG and CG
// degrade to ~0.6 under the slow-memory experiment of Table 2 while LU,
// with its wavefront reuse, suffers less.
type density struct {
	flopsPerPt float64
	bytesPerPt float64
	// eff is the fraction of node peak the arithmetic sustains.
	eff float64
}

var densities = map[Benchmark]density{
	BT: {flopsPerPt: 270, bytesPerPt: 1150, eff: 0.6},
	SP: {flopsPerPt: 130, bytesPerPt: 1270, eff: 0.6},
	LU: {flopsPerPt: 155, bytesPerPt: 269, eff: 0.6},
	MG: {flopsPerPt: 18, bytesPerPt: 180, eff: 0.6},  // per pt per V-cycle level-0 visit
	CG: {flopsPerPt: 1, bytesPerPt: 20, eff: 0.6},    // per accounted op
	FT: {flopsPerPt: 1, bytesPerPt: 2.2, eff: 0.6},   // per accounted op
	IS: {flopsPerPt: 1, bytesPerPt: 340, eff: 0.3},   // per key (random-scatter ranking: a cache miss per key)
	EP: {flopsPerPt: 42, bytesPerPt: 2.0, eff: 0.35}, // per pair
}

// Result reports one benchmark execution.
type Result struct {
	Benchmark Benchmark
	Class     string
	Procs     int
	// Ops is the accounted operation count (NPB "Mop" numerator).
	Ops float64
	// ElapsedVirtual is the modeled wall time; MopsTotal = Ops/Elapsed/1e6.
	ElapsedVirtual float64
	MopsTotal      float64
	MopsPerProc    float64
	// Verified reports the miniature's numerical check.
	Verified bool
	// VerifyDetail carries the checked quantity for error messages.
	VerifyDetail string
}

func (r Result) String() string {
	return fmt.Sprintf("%s class %s on %d procs: %.0f Mop/s total, %.1f Mop/s/proc (verified=%v)",
		r.Benchmark, r.Class, r.Procs, r.MopsTotal, r.MopsPerProc, r.Verified)
}
