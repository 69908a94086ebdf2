package mp

import (
	"context"
	"runtime/pprof"
	"strconv"
)

// Profiler labels: every rank goroutine carries a "rank" pprof label, and
// Rank.Span overlays a "phase" label for the span's extent, so host CPU
// profiles taken through the live /debug/pprof endpoints attribute samples
// to simulation phases. Labels are host-side observation only — they never
// touch virtual time, so runs stay bit-identical with or without a profiler
// attached.

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

// labelPhase overlays a "phase" label on the rank's goroutine until the
// returned function runs. Phases nest; the previous label set is restored.
// Only the rank's own goroutine touches labelCtx, so no locking.
func (r *Rank) labelPhase(name string) func() {
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
