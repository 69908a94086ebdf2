package npb

import (
	"fmt"

	"spacesim/internal/machine"
)

// ActualSize picks the miniature problem size for a benchmark at a given
// rank count: large enough that every rank holds at least one plane (or a
// fair share of rows/keys), small enough to execute quickly on the host.
func ActualSize(b Benchmark, procs int) int {
	switch b {
	case CG, MG, FT, BT, SP, LU:
		g := 32
		for g < procs || g%procs != 0 {
			g *= 2
		}
		if b == MG && g/procs < 2 {
			g *= 2
		}
		if b == LU && g/procs < 2 && g < 256 {
			// keep the wavefront pipeline deeper than the rank count so
			// fill bubbles stay a modest fraction, as at class sizes
			g *= 2
		}
		return g
	case IS:
		return 14 // 2^14 keys
	case EP:
		return 16 // 2^16 pairs
	}
	panic(fmt.Sprintf("npb: unknown benchmark %q", b))
}

// Run executes one benchmark at the given class and processor count on the
// cluster, choosing the miniature size automatically.
func Run(b Benchmark, cluster machine.Cluster, procs int, className string) (Result, error) {
	class, ok := Classes(b)[className]
	if !ok {
		return Result{}, fmt.Errorf("npb: %s has no class %q", b, className)
	}
	actual := ActualSize(b, procs)
	// Publish which kernel is running so live progress identifies the
	// workload (per-iteration steps are published inside each kernel).
	if p := cluster.Obs.Progress(); p != nil {
		p.Phase(string(b))
		p.State("running")
	}
	switch b {
	case CG:
		return RunCG(cluster, procs, class, actual), nil
	case MG:
		return RunMG(cluster, procs, class, actual), nil
	case FT:
		return RunFT(cluster, procs, class, actual), nil
	case IS:
		return RunIS(cluster, procs, class, actual), nil
	case EP:
		return RunEP(cluster, procs, class, actual), nil
	case BT:
		return RunADI(BT, cluster, procs, class, actual), nil
	case SP:
		return RunADI(SP, cluster, procs, class, actual), nil
	case LU:
		return RunLU(cluster, procs, class, actual), nil
	}
	return Result{}, fmt.Errorf("npb: unknown benchmark %q", b)
}
