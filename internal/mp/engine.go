package mp

// Discrete-event rank scheduler: the runtime every mp.Run executes on.
// Ranks are resumable tasks executed by a pool of host-core-sized execution
// slots: at most `workers` ranks run user code at any instant, the rest are
// parked. Message delivery to a parked receiver goes through a per-world
// min-heap of wake events keyed by (virtual arrival, sequence), so a wakeup
// is an O(log E) heap operation and blocking costs one leaf-lock
// acquisition.
//
// Task states:
//
//	ready   — enqueued for an execution slot (initially, after a wake
//	          event fires, or after a cooperative yield);
//	running — executing user code on a slot (the rank's goroutine is
//	          live; its fn cannot be suspended from outside, so each
//	          started task still owns a goroutine — but only `workers`
//	          of them are ever runnable, and unstarted tasks are a bare
//	          task struct until their first dispatch);
//	blocked — parked in takeBlocking with its (src, tag) pattern
//	          armed, waiting for a matching message's event;
//	waiting — parked at a rendezvous (OneSlot), until every live rank
//	          has arrived;
//	done    — fn returned or unwound.
//
// Parking protocol (no lost wakeups): a receiver marks itself blocked
// while holding its own inbox mutex; a sender enqueues the message and
// checks the receiver's state under that same mutex. Either the put lands
// before the receiver's scan (the receiver consumes it) or it lands after
// the receiver is marked blocked (the sender pushes a wake event). The
// scheduler lock nests strictly under any single inbox mutex.
//
// Determinism rule: a receive advances the receiver's clock to
// max(clock, arrival) regardless of host order, so for programs built from
// blocking operations virtual clocks are a pure function of the message
// causality DAG, whatever the worker count. The heap fixes the order in
// which *host* execution resumes blocked ranks (earliest virtual arrival
// first); it never alters a timestamp. A TryRecv sees whatever has been put
// so far, so a polling program's clocks depend on the order the host ran
// the ranks. A polling region (OneSlot) fixes that order: every live rank
// meets at a rendezvous, the ranks enter the region in rank order onto one
// slot, and a second rendezvous at its end gives the pool back its width.
// Blocking phases between regions run at any width, so the whole schedule
// repeats at any slot count.
//
// Quiescence: when no task is running or ready and the event heap is
// empty, no rank can ever run again — every live rank is blocked in a
// receive or waits at a rendezvous that a blocked rank holds up — detected
// in O(1) on the last slot release. Detection is by state, never by wall
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
	"sync"

	"spacesim/internal/obs"
	"spacesim/internal/par"
)

// taskState is the scheduler state of one rank task; guarded by engine.mu.
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

// event is one pending wakeup: dst's parked receive has a matching message
// arriving at virtual time `at`. seq breaks ties in push order.
type event struct {
	at  float64
	seq uint64
	t   *task
}

// eventHeap is a binary min-heap over (at, seq).
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{}
	q = q[:n]
	*h = q
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q.less(c+1, c) {
			c++
		}
		if !q.less(c, i) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	return top
}

// eventEngine is the per-world scheduler state.
type eventEngine struct {
	w *World
	// width is the pool's size; workers is the number of slots in use: 1
	// inside a polling region, width outside.
	width   int
	workers int

	mu      sync.Mutex
	tasks   []*task
	ready   []*task // FIFO dispatch queue, q[rhead:] live
	rhead   int
	running int
	waiting int // ranks parked at the rendezvous
	done    int
	heap    eventHeap
	seq     uint64
	// slots is what the pending rendezvous hands out: 1 at a region's
	// entry, width at its end.
	slots int

	fn     func(*Rank)
	clocks []float64
	wg     *sync.WaitGroup

	cEvents *obs.Counter // wake events pushed
	cParks  *obs.Counter // blocking parks
}

// newEventEngine builds the scheduler for one world, par.Width(workers,
// nprocs) slots wide: workers <= 0 picks min(GOMAXPROCS, nprocs).
func newEventEngine(w *World, ranks []*Rank, workers int) *eventEngine {
	workers = par.Width(workers, len(ranks))
	e := &eventEngine{
		w:       w,
		width:   workers,
		workers: workers,
		tasks:   make([]*task, len(ranks)),
		ready:   make([]*task, 0, len(ranks)),
		cEvents: w.obs.Reg.Counter("mp.engine.events"),
		cParks:  w.obs.Reg.Counter("mp.engine.parks"),
	}
	for i, r := range ranks {
		t := &task{r: r, state: taskReady, resume: make(chan struct{}, 1)}
		e.tasks[i] = t
		e.ready = append(e.ready, t)
	}
	return e
}

// run executes fn on every rank and returns when all tasks are done.
func (e *eventEngine) run(fn func(*Rank), clocks []float64) {
	var wg sync.WaitGroup
	wg.Add(len(e.tasks))
	e.fn, e.clocks, e.wg = fn, clocks, &wg
	e.mu.Lock()
	e.pump()
	e.mu.Unlock()
	wg.Wait()
}

// readyLen returns the live dispatch-queue length; caller holds mu.
func (e *eventEngine) readyLen() int { return len(e.ready) - e.rhead }

// readyPush appends a task to the dispatch queue; caller holds mu.
func (e *eventEngine) readyPush(t *task) {
	if e.rhead > 0 && e.rhead == len(e.ready) {
		e.ready = e.ready[:0]
		e.rhead = 0
	}
	e.ready = append(e.ready, t)
}

// readyPop removes the front task; caller holds mu and checked readyLen.
func (e *eventEngine) readyPop() *task {
	t := e.ready[e.rhead]
	e.ready[e.rhead] = nil
	e.rhead++
	if e.rhead == len(e.ready) {
		e.ready = e.ready[:0]
		e.rhead = 0
	} else if e.rhead >= 64 && e.rhead*2 >= len(e.ready) {
		n := copy(e.ready, e.ready[e.rhead:])
		clearTail := e.ready[n:]
		for i := range clearTail {
			clearTail[i] = nil
		}
		e.ready = e.ready[:n]
		e.rhead = 0
	}
	return t
}

// drainHeap converts every pending wake event into a ready task, in
// virtual-arrival order. Events whose target is no longer blocked (an
// earlier wake already readied it) are dropped. Caller holds mu.
func (e *eventEngine) drainHeap() {
	for len(e.heap) > 0 {
		ev := e.heap.pop()
		if ev.t.state == taskBlocked {
			ev.t.state = taskReady
			e.readyPush(ev.t)
		}
	}
}

// pump advances the scheduler until every execution slot is busy or no
// dispatchable work remains: it converts heap events (in virtual-arrival
// order) into ready tasks, fills free slots from the ready queue, and —
// when the world has provably quiesced — runs the resolution ladder.
// Caller holds mu. Called on every slot release and wake-event push, so
// the invariant "free slot + dispatchable task never coexist" holds.
func (e *eventEngine) pump() {
	for {
		e.drainHeap()
		for e.running < e.workers && e.readyLen() > 0 {
			t := e.readyPop()
			t.state = taskRunning
			e.running++
			e.dispatch(t)
		}
		if e.running > 0 || e.readyLen() > 0 || e.done == len(e.tasks) || e.w.aborted.Load() {
			return
		}
		// Nothing runs, nothing is ready, the heap is drained, and tasks
		// remain: every live rank is parked. Quiescent.
		e.resolveQuiescence()
	}
}

// dispatch hands an execution slot to a task: the first dispatch spawns its
// goroutine, later ones post the resume token. Caller holds mu.
func (e *eventEngine) dispatch(t *task) {
	if !t.started {
		t.started = true
		go func() {
			defer e.wg.Done()
			e.w.rankMain(t.r, e.fn, e.clocks, func() { e.taskExit(t) })
		}()
		return
	}
	t.resume <- struct{}{}
}

// taskExit retires a finished task and releases its slot. A rank that
// exits before a rendezvous no longer holds it up.
func (e *eventEngine) taskExit(t *task) {
	e.mu.Lock()
	t.state = taskDone
	e.running--
	e.done++
	e.releaseRendezvous()
	e.pump()
	e.mu.Unlock()
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
	if r.w.n == 1 {
		fn()
		return
	}
	e := r.w.eng
	e.rendezvous(e.tasks[r.id], 1)
	fn()
	e.rendezvous(e.tasks[r.id], e.width)
}

// rendezvous parks t until every live rank has arrived, then releases them
// all in rank order onto a pool of the given number of slots. It panics
// rankAbort when the world aborts meanwhile.
func (e *eventEngine) rendezvous(t *task, slots int) {
	w := e.w
	e.mu.Lock()
	if w.aborted.Load() {
		e.mu.Unlock()
		panic(rankAbort{})
	}
	t.state = taskWaiting
	e.running--
	e.waiting++
	e.slots = slots
	e.releaseRendezvous()
	e.pump()
	e.mu.Unlock()
	<-t.resume
	if w.aborted.Load() {
		panic(rankAbort{})
	}
}

// releaseRendezvous readies the ranks at the rendezvous, lowest rank first,
// once every live rank is among them, and resizes the pool to what the
// rendezvous hands out. Caller holds mu.
func (e *eventEngine) releaseRendezvous() {
	if e.waiting == 0 || e.waiting < len(e.tasks)-e.done {
		return
	}
	e.workers = e.slots
	for _, t := range e.tasks {
		if t.state == taskWaiting {
			t.state = taskReady
			e.readyPush(t)
		}
	}
	e.waiting = 0
}

// put delivers a message: enqueue under the receiver's inbox mutex, and
// push a wake event (keyed by virtual arrival) when — and only when — the
// receiver is parked on a matching receive. The inbox mutex serializes this
// against the receiver's scan-then-park, so a wakeup can never be lost.
func (e *eventEngine) put(dst int, m message) {
	ib := e.w.boxes[dst]
	ib.mu.Lock()
	ib.enqueue(m)
	t := e.tasks[dst]
	e.mu.Lock()
	if t.state == taskBlocked && matchMsg(&m, t.src, t.tag) {
		e.heap.push(event{at: m.arrive, seq: e.seq, t: t})
		e.seq++
		e.cEvents.Inc()
		e.pump()
	}
	e.mu.Unlock()
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
	e := w.eng
	ib := w.boxes[r.id]
	t := e.tasks[r.id]
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
		e.mu.Lock()
		t.src, t.tag = src, tag
		t.state = taskBlocked
		e.running--
		e.cParks.Inc()
		parked := true
		if w.aborted.Load() {
			// The abort's wakeAll may have swept before this park became
			// visible; self-revert under the lock instead of sleeping (the
			// loop top unwinds).
			t.state = taskRunning
			e.running++
			parked = false
		} else {
			e.pump()
		}
		e.mu.Unlock()
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
	e := r.w.eng
	t := e.tasks[r.id]
	e.mu.Lock()
	// Ready any pending wakeups first, so the yielder queues BEHIND the
	// ranks it is presumably waiting on — re-queuing ahead of them would
	// spin the single-worker pool forever.
	e.drainHeap()
	if e.readyLen() == 0 {
		e.mu.Unlock()
		runtime.Gosched()
		return
	}
	t.state = taskReady
	e.running--
	e.readyPush(t)
	e.pump()
	e.mu.Unlock()
	<-t.resume
}

// abort marks the world dead with the given cause and readies every parked
// task so it can observe the flag and unwind. Only the first abort wins;
// abort reports whether this call was it.
func (w *World) abort(err error) bool {
	if !w.setAborted(err) {
		return false
	}
	e := w.eng
	e.mu.Lock()
	e.wakeAllLocked()
	e.pump()
	e.mu.Unlock()
	return true
}

// wakeAllLocked readies every parked task, blocked in a receive or waiting
// at a rendezvous; the world must already be marked aborted. Caller holds
// mu.
func (e *eventEngine) wakeAllLocked() {
	for _, t := range e.tasks {
		switch t.state {
		case taskBlocked:
		case taskWaiting:
			e.waiting--
		default:
			continue
		}
		t.state = taskReady
		e.readyPush(t)
	}
}

// resolveQuiescence applies the resolution ladder at a proven quiescent
// point: either rung aborts the world and readies every parked task so it
// can unwind. Caller holds mu.
func (e *eventEngine) resolveQuiescence() {
	w := e.w
	// 1. Fire the earliest scheduled crash among the parked ranks.
	var ci *task
	var ciAt float64
	for _, t := range e.tasks {
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
		for _, t := range e.tasks {
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
	e.wakeAllLocked()
}

// crashTime is rank's scheduled crash time, +Inf without one.
func (w *World) crashTime(rank int) float64 {
	if w.plan == nil {
		return math.Inf(1)
	}
	return w.plan.crashAt(rank)
}
