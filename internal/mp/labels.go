package mp

import (
	"context"
	"runtime/pprof"
	"strconv"
)

// Profiler labels: every rank goroutine carries a "rank" pprof label, and
// Rank.Span and Rank.Label overlay a "phase" label for their extent, so host
// CPU profiles taken through the live /debug/pprof endpoints attribute
// samples to simulation phases. Labels are host-side observation only —
// they never touch virtual time, so runs stay bit-identical with or without
// a profiler attached.

// applyLabels stamps the calling goroutine (the rank's) with this rank's
// base label and returns a restore function.
func (r *Rank) applyLabels() func() {
	ctx := pprof.WithLabels(context.Background(),
		pprof.Labels("rank", strconv.Itoa(r.id)))
	r.labelCtx = ctx
	pprof.SetGoroutineLabels(ctx)
	return func() {
		r.labelCtx = nil
		pprof.SetGoroutineLabels(context.Background())
	}
}

// Label overlays a "phase" label on the rank's goroutine until the returned
// function runs, and on the goroutines it starts meanwhile; unlike Span it
// records nothing on the virtual timeline. Phases nest; the previous label
// set is restored. Only the rank's own goroutine touches labelCtx, so no
// locking.
func (r *Rank) Label(name string) func() {
	prev := r.labelCtx
	if prev == nil {
		return func() {}
	}
	ctx := pprof.WithLabels(prev, pprof.Labels("phase", name))
	r.labelCtx = ctx
	pprof.SetGoroutineLabels(ctx)
	return func() {
		r.labelCtx = prev
		pprof.SetGoroutineLabels(prev)
	}
}
