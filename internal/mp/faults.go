package mp

// Failure semantics. A FaultPlan schedules rank crashes in virtual time;
// the runtime consults it at every message-passing operation. The model is
// MPI-like whole-job abort: when a rank's clock first reaches its scheduled
// crash time it marks the world aborted and dies, and every other rank dies
// at its own next operation (including TryRecv, so ABM polling loops
// terminate too). Run recovers the per-rank aborts and reports the cause in
// Stats.Err; recovery is the checkpoint–restart driver's job (internal/core),
// not the message layer's.
//
// Crash timing is deterministic in virtual time: a crash scheduled at t
// fires at the first operation where the rank's clock has reached t, so two
// runs of the same program with the same plan die at the same virtual
// instant with the same work done.

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Sentinel errors for fault-aware callers. Stats.Err wraps these, so
// drivers dispatch with errors.Is.
var (
	// ErrRankDown marks a run aborted because a rank crashed; sends to and
	// receives from the dead rank fail fast by aborting the world instead of
	// deadlocking it.
	ErrRankDown = errors.New("mp: rank down")
	// ErrDeadlock marks a run aborted at quiescence: every live rank was
	// blocked in a receive no pending send could satisfy, or waited at a
	// rendezvous such a rank held up.
	ErrDeadlock = errors.New("mp: world deadlocked")
)

// CrashError reports the rank crash that aborted a run.
type CrashError struct {
	Rank  int
	AtSec float64 // scheduled crash time, virtual seconds
	Cause string  // component that failed, e.g. "PSU", "DRAM"
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("mp: rank %d crashed at t=%.6gs (%s)", e.Rank, e.AtSec, e.Cause)
}

// Unwrap makes errors.Is(err, ErrRankDown) true for crash aborts.
func (e *CrashError) Unwrap() error { return ErrRankDown }

// BlockedRank is one entry of a deadlock diagnostic: which rank was stuck,
// what it was waiting for, and its frozen virtual clock.
type BlockedRank struct {
	Rank  int
	Src   int // AnySource for a wildcard receive
	Tag   int // AnyTag for a wildcard receive
	Clock float64
}

// DeadlockError reports a run aborted by quiescence resolution, listing
// every blocked rank and its pending receive, and the ranks waiting at a
// rendezvous (Rank.OneSlot) that the blocked ones hold up, so the hang is
// debuggable instead of a silent `go test` timeout.
type DeadlockError struct {
	Blocked []BlockedRank
	Waiting []int // ascending
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mp: world deadlocked, %d rank(s) blocked with no pending sends:", len(e.Blocked))
	for _, x := range e.Blocked {
		fmt.Fprintf(&b, "\n  rank %d blocked in Recv(src=%s, tag=%s) at t=%.6gs",
			x.Rank, fmtSel(x.Src), fmtSel(x.Tag), x.Clock)
	}
	for _, r := range e.Waiting {
		fmt.Fprintf(&b, "\n  rank %d waiting at a rendezvous", r)
	}
	return b.String()
}

// Unwrap makes errors.Is(err, ErrDeadlock) true for deadlock aborts.
func (e *DeadlockError) Unwrap() error { return ErrDeadlock }

// fmtSel renders a src/tag selector, naming the wildcard.
func fmtSel(v int) string {
	if v == AnySource { // == AnyTag
		return "any"
	}
	return strconv.Itoa(v)
}

// FaultPlan schedules rank crashes for one run, in virtual seconds.
// Entries beyond the slice (or +Inf) mean the rank never crashes.
type FaultPlan struct {
	// CrashAtSec[i] is the virtual time at which rank i dies.
	CrashAtSec []float64
	// CrashCause[i] names the failed component for diagnostics.
	CrashCause []string
}

// NewFaultPlan returns a plan for n ranks with no crashes scheduled.
func NewFaultPlan(n int) *FaultPlan {
	p := &FaultPlan{CrashAtSec: make([]float64, n), CrashCause: make([]string, n)}
	for i := range p.CrashAtSec {
		p.CrashAtSec[i] = math.Inf(1)
	}
	return p
}

// Crash schedules rank to die at virtual time at (keeping the earliest time
// when called twice for one rank).
func (p *FaultPlan) Crash(rank int, at float64, cause string) {
	for len(p.CrashAtSec) <= rank {
		p.CrashAtSec = append(p.CrashAtSec, math.Inf(1))
		p.CrashCause = append(p.CrashCause, "")
	}
	if at < p.CrashAtSec[rank] {
		p.CrashAtSec[rank] = at
		p.CrashCause[rank] = cause
	}
}

// Empty reports whether the plan schedules no crashes at all.
func (p *FaultPlan) Empty() bool {
	if p == nil {
		return true
	}
	for _, t := range p.CrashAtSec {
		if !math.IsInf(t, 1) {
			return false
		}
	}
	return true
}

func (p *FaultPlan) crashAt(rank int) float64 {
	if p == nil || rank >= len(p.CrashAtSec) {
		return math.Inf(1)
	}
	if t := p.CrashAtSec[rank]; !math.IsNaN(t) {
		return t
	}
	return math.Inf(1)
}

func (p *FaultPlan) cause(rank int) string {
	if p == nil || rank >= len(p.CrashCause) || p.CrashCause[rank] == "" {
		return "fault"
	}
	return p.CrashCause[rank]
}

// rankAbort is the panic value used to unwind a rank's goroutine when the
// world has aborted; Run's wrapper recovers it. Any other panic value is a
// real bug and is re-raised.
type rankAbort struct{}

// checkFaults dies if the world has aborted, and fires this rank's own
// scheduled crash once its clock has reached the crash time. Called at the
// top of every message-passing and charging operation.
func (r *Rank) checkFaults() {
	w := r.w
	if w.aborted.Load() {
		panic(rankAbort{})
	}
	if w.plan == nil {
		return
	}
	if t := w.plan.crashAt(r.id); r.clock >= t {
		r.fireCrash(t)
	}
}

// fireCrash aborts the world with this rank's crash and unwinds.
func (r *Rank) fireCrash(t float64) {
	w := r.w
	if w.abort(&CrashError{Rank: r.id, AtSec: t, Cause: w.plan.cause(r.id)}) {
		w.cCrashes.Inc()
		r.obs.Span("fault", "crash", t, r.clock)
	}
	panic(rankAbort{})
}

// setAborted records the first abort cause and flips the aborted flag,
// reporting whether this call won the race. Waking the blocked ranks is the
// caller's job (abort, or quiescence resolution under the scheduler lock).
func (w *World) setAborted(err error) bool {
	w.abortMu.Lock()
	if w.aborted.Load() {
		w.abortMu.Unlock()
		return false
	}
	w.abortErr = err
	w.aborted.Store(true)
	w.abortMu.Unlock()
	return true
}
