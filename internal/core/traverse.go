package core

import "spacesim/internal/gravity"

// The latency-hiding traversal (Section 4.2): "to avoid stalls during
// non-local data access, we effectively do explicit context switching using
// a software queue to keep track of which computations have been put aside
// waiting for messages to arrive."
//
// The engine (grouped.go) runs one walker per sink group: each owns a stack
// of pending slab cells, and when it needs a non-local cell that is not yet
// resident, the expansion request is batched through the ABM layer and the
// engine moves on to other walkers. Responses re-enable walkers through
// their continuations. This file holds the accounting the walkers share.

// cellFlops is the accounted flop cost of one cell-body (quadrupole)
// interaction; body-body interactions cost gravity.KernelFlops.
const cellFlops = 70

// TraversalStats aggregates the work of a force evaluation on one rank.
type TraversalStats struct {
	BodyInteractions int64
	CellInteractions int64
	Fetches          int64
	Flops            float64
	// PerBody is the interaction count of each local body, the work weight
	// fed back into the next domain decomposition.
	PerBody []float64
}

// chargeFunc converts interaction counts accumulated since the last call
// into virtual compute time; the engine calls it at deterministic points so
// virtual-time accounting does not depend on evaluation concurrency.
func (dt *DTree) chargeFunc(st *TraversalStats) func() {
	var lastBody, lastCell int64
	return func() {
		db := st.BodyInteractions - lastBody
		dc := st.CellInteractions - lastCell
		if db == 0 && dc == 0 {
			return
		}
		flops := float64(db)*gravity.KernelFlops + float64(dc)*cellFlops
		st.Flops += flops
		dt.r.Charge(flops, dt.opt.KernelEff, float64(db+dc)*32)
		lastBody, lastCell = st.BodyInteractions, st.CellInteractions
	}
}
