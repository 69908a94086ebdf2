package mp

// Discrete-event rank scheduler: the runtime every mp.Run executes on.
// Ranks are resumable tasks executed by a pool of host-core-sized execution
// slots: at most `workers` ranks run user code at any instant, the rest are
// parked. The scheduler is the World itself: one FIFO dispatch queue, from
// which readyPop hands out every slot. A message to a parked receiver whose
// pattern it matches readies that receiver at the back of the queue, so a
// wakeup is an O(1) append and blocking costs one leaf-lock acquisition.
//
// Task states:
//
//	ready   — enqueued for an execution slot (initially, after a wake,
//	          a rendezvous release or a cooperative yield);
//	running — executing user code on a slot (the rank's goroutine is
//	          live; its fn cannot be suspended from outside, so each
//	          started task still owns a goroutine — but only `workers`
//	          of them are ever runnable, and unstarted tasks are a bare
//	          task struct until their first dispatch);
//	blocked — parked in takeBlocking with its (src, tag) pattern
//	          armed, waiting for a matching message;
//	waiting — parked at a rendezvous (OneSlot), until every live rank
//	          has arrived;
//	done    — fn returned or unwound.
//
// Parking protocol (no lost wakeups): a receiver marks itself blocked
// while holding its own inbox mutex; a sender enqueues the message and
// checks the receiver's state under that same mutex. Either the put lands
// before the receiver's scan (the receiver consumes it) or it lands after
// the receiver is marked blocked (the sender readies it). The scheduler
// lock nests strictly under any single inbox mutex.
//
// Determinism rule: a receive advances the receiver's clock to
// max(clock, arrival) regardless of host order, so for programs built from
// blocking operations virtual clocks are a pure function of the message
// causality DAG, whatever the worker count. Wakes are readied in put order,
// which is host order; no clock depends on it. A TryRecv sees whatever has
// been put so far, so a polling program's clocks depend on the order the
// host ran the ranks. A polling region (OneSlot) fixes that order: every
// live rank meets at a rendezvous, the ranks enter the region in rank order
// onto one slot, and a second rendezvous at its end gives the pool back its
// width. Blocking phases between regions run at any width, so the whole
// schedule repeats at any slot count.
//
// Quiescence: when no task is running or ready, no rank can ever run
// again — every live rank is blocked in a receive or waits at a rendezvous
// that a blocked rank holds up — detected in O(1) on the last slot release. Detection is by state, never by wall
// clock: virtual time has no relation to host time, so a timer would
// misfire on a slow host. The resolution ladder, in order of preference:
//  1. fire the earliest scheduled crash among the parked ranks (ties to the
//     lowest rank) — a rank whose clock froze before its crash time still
//     dies, it just dies parked;
//  2. abort the world with a DeadlockError naming every blocked rank and
//     its pending receive, and every rank waiting at the rendezvous.
//
// Known limitation: a rank that polls with TryRecv (the ABM layer) yields
// its slot but never parks, so a pure polling livelock is not detected.
// Polling loops do check the abort flag, so they terminate whenever
// anything else (a crash, a deadlock among the blocking ranks) aborts the
// world.

import (
	"math"
	"runtime"
)

// taskState is the scheduler state of one rank task; guarded by World.mu.
type taskState int32

const (
	taskReady taskState = iota
	taskRunning
	taskBlocked
	taskWaiting
	taskDone
)

// task is the per-rank scheduler record — all a never-started rank costs.
type task struct {
	r       *Rank
	state   taskState
	started bool
	// resume carries the execution slot to a parked task. Buffered so a
	// dispatch can complete before the task has finished parking.
	resume chan struct{}
	// Armed receive pattern while blocked.
	src, tag int
}

// readyLen returns the live dispatch-queue length; caller holds mu.
func (w *World) readyLen() int { return len(w.ready) - w.rhead }

// readyPush appends a task to the dispatch queue; caller holds mu.
func (w *World) readyPush(t *task) { w.ready = append(w.ready, t) }

// readyPop removes the front task; caller holds mu and checked readyLen.
// It is the one dispatch point: every slot goes to the task it returns.
func (w *World) readyPop() *task {
	t := w.ready[w.rhead]
	w.ready[w.rhead] = nil
	w.rhead++
	if w.rhead == len(w.ready) {
		w.ready = w.ready[:0]
		w.rhead = 0
	} else if w.rhead >= 64 && w.rhead*2 >= len(w.ready) {
		n := copy(w.ready, w.ready[w.rhead:])
		clearTail := w.ready[n:]
		for i := range clearTail {
			clearTail[i] = nil
		}
		w.ready = w.ready[:n]
		w.rhead = 0
	}
	return t
}

// pump advances the scheduler until every execution slot is busy or no
// dispatchable work remains: it fills free slots from the ready queue and —
// when the world has provably quiesced — runs the resolution ladder.
// Caller holds mu. Called on every slot release and every wake, so the
// invariant "free slot + dispatchable task never coexist" holds.
func (w *World) pump() {
	for {
		for w.running < w.workers && w.readyLen() > 0 {
			t := w.readyPop()
			t.state = taskRunning
			w.running++
			w.dispatch(t)
		}
		if w.running > 0 || w.readyLen() > 0 || w.done == len(w.tasks) || w.aborted.Load() {
			return
		}
		// Nothing runs, nothing is ready, and tasks remain: every live
		// rank is parked. Quiescent.
		w.resolveQuiescence()
	}
}

// dispatch hands an execution slot to a task: the first dispatch spawns its
// goroutine, later ones post the resume token. Caller holds mu.
func (w *World) dispatch(t *task) {
	if !t.started {
		t.started = true
		go w.rankMain(t)
		return
	}
	t.resume <- struct{}{}
}

// taskExit retires a finished task and releases its slot. A rank that
// exits before a rendezvous no longer holds it up.
func (w *World) taskExit(t *task) {
	w.mu.Lock()
	t.state = taskDone
	w.running--
	w.done++
	w.releaseRendezvous()
	w.pump()
	w.mu.Unlock()
}

// OneSlot runs fn as a polling region. It is entered at a host-side
// rendezvous of every live rank: once all have arrived they are released in
// rank order onto one execution slot, so the order in which the host runs
// the ranks — and with it what every TryRecv finds — is the same at any
// pool width. A second rendezvous at the end of fn gives the pool back its
// width. Neither rendezvous moves a virtual clock. Every live rank must call
// it, in the same order with respect to its collectives; on one rank it is
// fn.
func (r *Rank) OneSlot(fn func()) {
	w := r.w
	if w.n == 1 {
		fn()
		return
	}
	w.rendezvous(w.tasks[r.id], 1)
	fn()
	w.rendezvous(w.tasks[r.id], w.width)
}

// rendezvous parks t until every live rank has arrived, then releases them
// all in rank order onto a pool of the given number of slots. It panics
// rankAbort when the world aborts meanwhile.
func (w *World) rendezvous(t *task, slots int) {
	w.mu.Lock()
	if w.aborted.Load() {
		w.mu.Unlock()
		panic(rankAbort{})
	}
	t.state = taskWaiting
	w.running--
	w.waiting++
	w.slots = slots
	w.releaseRendezvous()
	w.pump()
	w.mu.Unlock()
	<-t.resume
	if w.aborted.Load() {
		panic(rankAbort{})
	}
}

// releaseRendezvous readies the ranks at the rendezvous, lowest rank first,
// once every live rank is among them, and resizes the pool to what the
// rendezvous hands out. Caller holds mu.
func (w *World) releaseRendezvous() {
	if w.waiting == 0 || w.waiting < len(w.tasks)-w.done {
		return
	}
	w.workers = w.slots
	for _, t := range w.tasks {
		if t.state == taskWaiting {
			t.state = taskReady
			w.readyPush(t)
		}
	}
	w.waiting = 0
}

// put delivers a message: enqueue under the receiver's inbox mutex, and
// ready the receiver at the back of the dispatch queue when — and only
// when — it is parked on a matching receive. The inbox mutex serializes
// this against the receiver's scan-then-park, so a wakeup can never be
// lost.
func (w *World) put(dst int, m message) {
	ib := w.boxes[dst]
	ib.mu.Lock()
	ib.enqueue(m)
	t := w.tasks[dst]
	w.mu.Lock()
	if t.state == taskBlocked && matchMsg(&m, t.src, t.tag) {
		t.state = taskReady
		w.readyPush(t)
		w.pump()
	}
	w.mu.Unlock()
	ib.mu.Unlock()
}

// matchMsg is the MPI-style (src, tag) match with wildcards.
func matchMsg(m *message, src, tag int) bool {
	return (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag)
}

// takeBlocking removes and returns the first message in queue order matching
// (src, tag) from this rank's inbox, parking the rank until one exists. A
// wake means a matching message was delivered; the inbox is rescanned, since
// a raced earlier wake may have consumed it. It panics rankAbort when the
// world aborts.
func (r *Rank) takeBlocking(src, tag int) message {
	w := r.w
	ib := w.boxes[r.id]
	t := w.tasks[r.id]
	for {
		if w.aborted.Load() {
			panic(rankAbort{})
		}
		ib.mu.Lock()
		if i := ib.scanMatch(src, tag); i >= 0 {
			m := ib.q[i]
			ib.removeAt(i)
			ib.mu.Unlock()
			return m
		}
		w.mu.Lock()
		t.src, t.tag = src, tag
		t.state = taskBlocked
		w.running--
		parked := true
		if w.aborted.Load() {
			// The abort's wakeAll may have swept before this park became
			// visible; self-revert under the lock instead of sleeping (the
			// loop top unwinds).
			t.state = taskRunning
			w.running++
			parked = false
		} else {
			w.pump()
		}
		w.mu.Unlock()
		ib.mu.Unlock()
		if !parked {
			continue
		}
		<-t.resume
	}
}

// Yield releases this rank's execution slot to the back of the ready queue
// so another rank can run. A loop that polls for remote progress (TryRecv,
// ABM.Poll) MUST call it when a poll comes up empty: the pool is sized to
// host cores, possibly 1, and a spinning rank would otherwise hold its slot
// forever while the rank it awaits sits ready but undispatched. When nothing
// else is dispatchable the slot is kept and the host scheduler is yielded
// instead.
func (r *Rank) Yield() {
	w := r.w
	t := w.tasks[r.id]
	w.mu.Lock()
	if w.readyLen() == 0 {
		w.mu.Unlock()
		runtime.Gosched()
		return
	}
	t.state = taskReady
	w.running--
	w.readyPush(t)
	w.pump()
	w.mu.Unlock()
	<-t.resume
}

// abort marks the world dead with the given cause and readies every parked
// task so it can observe the flag and unwind. Only the first abort wins;
// abort reports whether this call was it.
func (w *World) abort(err error) bool {
	if !w.setAborted(err) {
		return false
	}
	w.mu.Lock()
	w.wakeAllLocked()
	w.pump()
	w.mu.Unlock()
	return true
}

// wakeAllLocked readies every parked task, blocked in a receive or waiting
// at a rendezvous; the world must already be marked aborted. Caller holds
// mu.
func (w *World) wakeAllLocked() {
	for _, t := range w.tasks {
		switch t.state {
		case taskBlocked:
		case taskWaiting:
			w.waiting--
		default:
			continue
		}
		t.state = taskReady
		w.readyPush(t)
	}
}

// resolveQuiescence applies the resolution ladder at a proven quiescent
// point: either rung aborts the world and readies every parked task so it
// can unwind. Caller holds mu.
func (w *World) resolveQuiescence() {
	// 1. Fire the earliest scheduled crash among the parked ranks.
	var ci *task
	var ciAt float64
	for _, t := range w.tasks {
		if t.state != taskBlocked && t.state != taskWaiting {
			continue
		}
		at := w.crashTime(t.r.id)
		if math.IsInf(at, 1) {
			continue
		}
		if ci == nil || at < ciAt || (at == ciAt && t.r.id < ci.r.id) {
			ci, ciAt = t, at
		}
	}
	if ci != nil {
		if w.setAborted(&CrashError{Rank: ci.r.id, AtSec: ciAt, Cause: w.plan.cause(ci.r.id)}) {
			w.cCrashes.Inc()
		}
	} else {
		// 2. True deadlock: abort with the full diagnostic. The tasks are
		// in rank order.
		de := &DeadlockError{}
		for _, t := range w.tasks {
			switch t.state {
			case taskBlocked:
				de.Blocked = append(de.Blocked, BlockedRank{
					Rank: t.r.id, Src: t.src, Tag: t.tag, Clock: t.r.clock,
				})
			case taskWaiting:
				de.Waiting = append(de.Waiting, t.r.id)
			}
		}
		w.setAborted(de)
	}
	w.wakeAllLocked()
}

// crashTime is rank's scheduled crash time, +Inf without one.
func (w *World) crashTime(rank int) float64 {
	if w.plan == nil {
		return math.Inf(1)
	}
	return w.plan.crashAt(rank)
}
