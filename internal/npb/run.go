package npb

import (
	"fmt"

	"spacesim/internal/machine"
	"spacesim/internal/mp"
)

// ActualSize picks the miniature problem size for a benchmark at a given
// rank count: large enough that every rank holds at least one plane (or a
// fair share of rows/keys), small enough to execute quickly on the host.
// The grid kernels need a power-of-two procs, which then divides the
// power-of-two grid edge.
func ActualSize(b Benchmark, procs int) int {
	switch b {
	case CG, MG, FT, BT, SP, LU:
		g := 32
		for g < procs {
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
// cluster, choosing the miniature size automatically. procs must fit the
// cluster, and for every kernel but IS and EP be a power of two.
func Run(b Benchmark, cluster machine.Cluster, procs int, className string) (Result, error) {
	class, ok := Classes(b)[className]
	if !ok {
		return Result{}, fmt.Errorf("npb: %s has no class %q", b, className)
	}
	if procs < 1 || procs > cluster.Nodes {
		return Result{}, fmt.Errorf("npb: %d ranks, want 1 to %d (the nodes of %s)", procs, cluster.Nodes, cluster.Name)
	}
	if b != IS && b != EP && procs&(procs-1) != 0 {
		return Result{}, fmt.Errorf("npb: %s needs a power-of-two rank count, not %d", b, procs)
	}
	actual := ActualSize(b, procs)
	// Publish which kernel is running so live progress identifies the
	// workload (per-iteration steps are published inside each kernel).
	if p := cluster.Obs.Progress(); p != nil {
		p.Phase(string(b))
		p.State("running")
	}
	res := Result{Benchmark: b, Class: className, Procs: procs}
	switch b {
	case CG:
		return runCG(res, cluster, class, actual), nil
	case MG:
		return runMG(res, cluster, class, actual), nil
	case FT:
		return runFT(res, cluster, class, actual), nil
	case IS:
		return runIS(res, cluster, class, actual), nil
	case EP:
		return runEP(res, cluster, class, actual), nil
	case BT, SP:
		return runADI(res, cluster, class, actual), nil
	case LU:
		return runLU(res, cluster, class, actual), nil
	}
	return Result{}, fmt.Errorf("npb: unknown benchmark %q", b)
}

// run executes body on res.Procs ranks and completes res: the run
// verifies when every rank's body does, and VerifyDetail is the first
// failing rank's detail, otherwise rank 0's.
func run(res Result, cluster machine.Cluster, body func(r *mp.Rank) (ok bool, detail string)) Result {
	oks := make([]bool, res.Procs)
	details := make([]string, res.Procs)
	st := mp.Run(cluster, res.Procs, func(r *mp.Rank) {
		oks[r.ID()], details[r.ID()] = body(r)
	})
	res.Verified, res.VerifyDetail = true, details[0]
	for i, ok := range oks {
		if !ok {
			res.Verified, res.VerifyDetail = false, details[i]
			break
		}
	}
	res.ElapsedVirtual = st.ElapsedVirtual
	if st.ElapsedVirtual > 0 {
		res.MopsTotal = res.Ops / st.ElapsedVirtual / 1e6
		res.MopsPerProc = res.MopsTotal / float64(res.Procs)
	}
	return res
}
