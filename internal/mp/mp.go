// Package mp is the message-passing substrate standing in for MPI on the
// simulated cluster. Ranks are resumable tasks of one discrete-event
// scheduler (engine.go): a bounded pool of execution slots runs them, a
// blocked receive parks its rank, and messages move through in-process
// mailboxes carrying *virtual timestamps*.
//
// Virtual time: every rank owns a clock (seconds). Computation is charged
// explicitly through Charge (roofline node model); communication is charged
// by the network model — a message sent at sender-time t arrives at
// t + transfer(bytes), and the receiver's clock advances to
// max(receiver clock, arrival). A receive cannot return before its message
// was really put, so the resulting virtual schedule is causally consistent,
// and cluster-scale performance shapes (Linpack, NPB scaling, treecode
// throughput) are reproduced on a single host CPU. For programs built from
// blocking operations the schedule is a pure function of the message DAG;
// polling (TryRecv, ABM) makes it depend on the order the host runs the
// ranks, which a polling region (Rank.OneSlot) fixes at any pool width.
//
// Sends are buffered (they never block); receives block until a matching
// message exists. Collectives are implemented on top of point-to-point with
// the standard logarithmic algorithms, so their virtual cost emerges from
// the same model rather than being postulated.
package mp

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"spacesim/internal/machine"
	"spacesim/internal/netsim"
	"spacesim/internal/obs"
)

// AnySource and AnyTag are wildcard selectors for Recv.
const (
	AnySource = -1
	AnyTag    = -1
)

// Reserved internal tag space for collectives; user tags must be >= 0.
const (
	tagBarrier = -100 - iota
	tagBcast
	tagReduce
	tagAllgather
	tagAlltoall
	tagABM
	tagExchange
)

// message is an in-flight payload with its virtual arrival time. sent is
// the sender's clock when the send began — carried along so the receiver
// can record the full dependency edge (sender send-time -> arrival) for
// critical-path analysis without any cross-rank matching.
type message struct {
	src, tag int
	data     any
	bytes    int64
	sent     float64
	arrive   float64
}

// inbox is a rank's pending-message queue with MPI-style matching. The
// queue is a ring: live messages occupy q[head:], so consuming the oldest
// match — the overwhelmingly common case, and the only case under AnySource
// fan-in — advances head in O(1) instead of shifting the whole tail the way
// `append(q[:i], q[i+1:]...)` did.
type inbox struct {
	mu   sync.Mutex
	q    []message
	head int
}

// enqueue appends a message; caller holds mu.
func (ib *inbox) enqueue(m message) { ib.q = append(ib.q, m) }

// scanMatch returns the physical index of the first message in queue
// order matching (src, tag), or -1 with no match queued. Caller holds mu.
func (ib *inbox) scanMatch(src, tag int) int {
	for i := ib.head; i < len(ib.q); i++ {
		if matchMsg(&ib.q[i], src, tag) {
			return i
		}
	}
	return -1
}

// removeAt deletes the message at physical index i, preserving queue order.
// A front delete advances head in O(1); a middle delete (a selective
// receive skipping newer arrivals) shifts only the prefix [head, i), which
// front-biased matching keeps short. Caller holds mu.
func (ib *inbox) removeAt(i int) {
	if i > ib.head {
		copy(ib.q[ib.head+1:i+1], ib.q[ib.head:i])
	}
	ib.q[ib.head] = message{} // drop the payload reference for GC
	ib.head++
	if ib.head == len(ib.q) {
		ib.q = ib.q[:0]
		ib.head = 0
	} else if ib.head >= 64 && ib.head*2 >= len(ib.q) {
		// Reclaim the dead prefix once it dominates the backing array.
		n := copy(ib.q, ib.q[ib.head:])
		clearTail := ib.q[n:]
		for j := range clearTail {
			clearTail[j] = message{}
		}
		ib.q = ib.q[:n]
		ib.head = 0
	}
}

// pending returns the number of queued messages; caller holds mu.
func (ib *inbox) pending() int { return len(ib.q) - ib.head }

// tryTake is take without blocking; ok reports whether a match existed.
func (ib *inbox) tryTake(src, tag int) (message, bool) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if i := ib.scanMatch(src, tag); i >= 0 {
		m := ib.q[i]
		ib.removeAt(i)
		return m, true
	}
	return message{}, false
}

// World is one parallel run: n ranks on a modeled cluster.
type World struct {
	n       int
	cluster machine.Cluster
	boxes   []*inbox

	// plan schedules fault injection (nil for a healthy run).
	plan *FaultPlan

	// aborted flips once when the world dies (a crash, or a deadlock found
	// at quiescence); every operation checks it so all ranks unwind
	// promptly. abortErr records the first cause.
	aborted  atomic.Bool
	abortMu  sync.Mutex
	abortErr error

	// obs observes the run: always non-nil inside Run (a private handle is
	// created when the cluster carries none), with per-module byte counters
	// resolved once so the send path stays cheap.
	obs           *obs.Obs
	moduleTx      []*obs.Counter
	moduleRx      []*obs.Counter
	trunkBytes    *obs.Counter
	congestedMsgs *obs.Counter
	cCrashes      *obs.Counter
	netTracks     []*obs.Track // per switch module; nil without a tracer
	hMsgLatency   *obs.Histogram
	hMsgBytes     *obs.Histogram
	hCollBytes    *obs.Histogram
	hCollSec      *obs.Histogram

	// congestedBps caches the per-flow fair-share bandwidth under a full
	// random-permutation load, used by dense collectives (alltoall).
	congestedOnce sync.Once
	congestedBps  float64

	// eng is the discrete-event scheduler that runs the ranks.
	eng *eventEngine
}

// Stats summarizes a completed run.
type Stats struct {
	// ElapsedVirtual is the max over ranks of their final clocks: the
	// modeled wall-clock time of the parallel program.
	ElapsedVirtual float64
	// RankClocks are the per-rank final virtual clocks.
	RankClocks []float64
	// Messages and Bytes count all point-to-point traffic, including that
	// generated inside collectives.
	Messages int64
	Bytes    int64
	// CollectiveMessages and CollectiveBytes break out the subset of
	// Messages/Bytes generated inside collective operations (and the ABM
	// quiescence consensus), so point-to-point and collective traffic are
	// accounted consistently and separably.
	CollectiveMessages int64
	CollectiveBytes    int64
	// Obs is the observation handle of the run: the cluster's, or the
	// private one created by Run. Its registry and per-rank breakdowns are
	// valid once Run returns.
	Obs *obs.Obs
	// Err is non-nil when the run aborted instead of completing: a
	// *CrashError (errors.Is ErrRankDown) for an injected rank crash, or a
	// *DeadlockError (errors.Is ErrDeadlock) from quiescence resolution.
	// RankClocks then hold each rank's clock at its death.
	Err error
}

// Run executes fn on nprocs ranks of the given cluster and returns timing
// statistics. It panics if nprocs exceeds the cluster's node count, since
// rank-to-node placement is 1:1 (the SS ran one process per node).
func Run(cluster machine.Cluster, nprocs int, fn func(r *Rank)) Stats {
	return RunWith(cluster, nprocs, RunOptions{}, fn)
}

// Engine is retained for bench/, which builder PRs may not edit and which
// spells RunOptions{Engine: EngineEvent}; no code reads it. There is one
// runtime, the discrete-event scheduler of engine.go. Goes with the next
// [benchmark] PR.
type Engine int

// EngineEvent is the only Engine value (retained for bench/, see Engine).
const EngineEvent Engine = 0

// RunOptions configures fault injection and the scheduler's pool for one run.
type RunOptions struct {
	// Plan schedules rank crashes in virtual time; nil injects nothing.
	// Link/port degradation rides on the cluster's network health
	// (netsim.Network.WithHealth), not here.
	Plan *FaultPlan
	// Engine is read by no code; retained for bench/ (see Engine).
	Engine Engine
	// Workers bounds the concurrently-executing ranks; <= 0 means
	// min(GOMAXPROCS, nprocs). With one worker the host runs the ranks in
	// one fixed order, so even a polling program repeats its schedule; a
	// program that polls only inside Rank.OneSlot repeats it at any width.
	Workers int
}

// RunWith is Run with options. When the run aborts — an injected crash, or
// a world-wide deadlock found at quiescence — the returned Stats carry the
// cause in Err and each rank's clock at death; the process itself always
// survives.
func RunWith(cluster machine.Cluster, nprocs int, opt RunOptions, fn func(r *Rank)) Stats {
	if nprocs <= 0 {
		panic("mp: nprocs must be positive")
	}
	if nprocs > cluster.Nodes {
		panic(fmt.Sprintf("mp: %d ranks exceed %d nodes of %s", nprocs, cluster.Nodes, cluster.Name))
	}
	w := &World{n: nprocs, cluster: cluster, plan: opt.Plan}
	w.boxes = make([]*inbox, nprocs)
	for i := range w.boxes {
		w.boxes[i] = &inbox{}
	}
	w.initObs()
	clocks := make([]float64, nprocs)
	ranks := make([]*Rank, nprocs)
	for i := range ranks {
		r := &Rank{id: i, w: w}
		r.obs = w.obs.Rank(i)
		ranks[i] = r
	}
	w.eng = newEventEngine(w, ranks, opt.Workers)
	w.eng.run(fn, clocks)
	st := Stats{RankClocks: clocks, Obs: w.obs, Err: w.abortErr}
	for _, r := range ranks {
		st.Messages += r.sent.msgs
		st.Bytes += r.sent.bytes
		st.CollectiveMessages += r.sent.collMsgs
		st.CollectiveBytes += r.sent.collBytes
	}
	for _, c := range clocks {
		if c > st.ElapsedVirtual {
			st.ElapsedVirtual = c
		}
	}
	return st
}

// rankMain is the body of one rank's goroutine: it runs fn, recovers the
// rankAbort unwind, records the rank's final clock, and calls exit (the
// scheduler's task retirement).
func (w *World) rankMain(r *Rank, fn func(r *Rank), clocks []float64, exit func()) {
	defer func() {
		e := recover()
		clocks[r.id] = r.clock
		r.obs.M.Clock = r.clock
		exit()
		if e != nil {
			if _, ok := e.(rankAbort); !ok {
				panic(e) // real bug, not a world abort
			}
		}
	}()
	defer r.applyLabels()()
	fn(r)
}

// initObs resolves the run's observation handle (the cluster's, or a fresh
// private one) and pre-creates the per-module network counters and trace
// rows so the send path never takes the registry lock.
func (w *World) initObs() {
	w.obs = w.cluster.Obs
	if w.obs == nil {
		w.obs = obs.New(false)
	}
	topo := w.cluster.Net.Topo
	modules := (topo.Nodes + topo.PortsPerModule - 1) / topo.PortsPerModule
	w.moduleTx = make([]*obs.Counter, modules)
	w.moduleRx = make([]*obs.Counter, modules)
	for m := 0; m < modules; m++ {
		w.moduleTx[m] = w.obs.Reg.Counter(fmt.Sprintf("net.module.%02d.tx_bytes", m))
		w.moduleRx[m] = w.obs.Reg.Counter(fmt.Sprintf("net.module.%02d.rx_bytes", m))
	}
	w.trunkBytes = w.obs.Reg.Counter("net.trunk.bytes")
	w.congestedMsgs = w.obs.Reg.Counter("net.congested.msgs")
	w.cCrashes = w.obs.Reg.Counter("faults.crashes")
	w.hMsgLatency = w.obs.Reg.Histogram("mp.msg.latency_sec")
	w.hMsgBytes = w.obs.Reg.Histogram("mp.msg.bytes")
	w.hCollBytes = w.obs.Reg.Histogram("mp.collective.msg_bytes")
	w.hCollSec = w.obs.Reg.Histogram("mp.collective.sec")
	if tr := w.obs.Tracer; tr != nil {
		w.netTracks = make([]*obs.Track, modules)
		for m := 0; m < modules; m++ {
			w.netTracks[m] = tr.Track(obs.PidNet, m, fmt.Sprintf("module %d", m))
		}
	}
}

// congestedRate returns the mean fair per-flow bandwidth (bits/s) across
// the rounds of a dense exchange: an all-to-all visits every shift
// distance, so early rounds stay inside a switch module (line rate) while
// far rounds squeeze through the module backplane and trunk. We average the
// max-min fair share over log-spaced shift permutations. Cached per world.
func (w *World) congestedRate() float64 {
	w.congestedOnce.Do(func() {
		prof := w.cluster.Net.Prof.PeakBps
		if w.n < 2 {
			w.congestedBps = prof
			return
		}
		var sum float64
		var samples int
		for shift := 1; shift < w.n; shift *= 2 {
			flows := make([]netsim.Flow, w.n)
			for i := 0; i < w.n; i++ {
				flows[i] = netsim.Flow{Src: i, Dst: (i + shift) % w.n}
			}
			rates := w.cluster.Net.FairShare(flows)
			var tot float64
			for _, r := range rates {
				tot += r
			}
			per := tot / float64(w.n)
			if per > prof {
				per = prof
			}
			sum += per
			samples++
		}
		w.congestedBps = sum / float64(samples)
	})
	return w.congestedBps
}

// Rank is the per-process handle: identity, virtual clock, and the
// communication API. All methods must be called from the rank's own
// goroutine.
type Rank struct {
	id    int
	w     *World
	clock float64

	// sent counts this rank's messages and bytes, in all and inside
	// collectives; RunWith sums them into Stats once every rank is done.
	sent struct{ msgs, bytes, collMsgs, collBytes int64 }

	// gatherSeq stamps Gather rounds (collectives are SPMD-ordered, so the
	// per-rank counter is globally consistent).
	gatherSeq int64

	// obs is the rank's observation handle (always non-nil inside Run); it
	// only ever reads the clock, never advances it.
	obs *obs.RankObs
	// collDepth > 0 while inside a collective, for traffic attribution.
	collDepth int
	// msgSeq numbers this rank's sends for async trace slice ids.
	msgSeq int64
	// labelCtx is the current pprof label set on the rank's goroutine
	// (the rank base label plus the innermost Span's phase overlay); owned
	// by the rank's goroutine, see labels.go.
	labelCtx context.Context
}

// Obs returns the rank's observation handle: per-rank metric accumulators
// plus its virtual-time trace row (Track is nil when tracing is off).
func (r *Rank) Obs() *obs.RankObs { return r.obs }

// Metrics returns the run-wide metrics registry, for engine-level counters.
func (r *Rank) Metrics() *obs.Registry { return r.w.obs.Reg }

// WorldObs returns the run's observation handle (shared across ranks).
func (r *Rank) WorldObs() *obs.Obs { return r.w.obs }

// Span records a virtual-time phase span on this rank's trace row, closed
// when the returned function is invoked:
//
//	defer r.Span("comm", "panel-bcast")()
//
// The span is purely observational; it reads the clock at both ends.
func (r *Rank) Span(cat, name string) func() {
	unlabel := r.labelPhase(name)
	if !r.obs.Observing() {
		return unlabel
	}
	t0 := r.clock
	return func() {
		r.obs.Span(cat, name, t0, r.clock)
		unlabel()
	}
}

// collective brackets one collective operation: the outermost level records
// a span and the collective-time accumulator, and while the depth is
// nonzero every message is attributed to collective traffic.
func (r *Rank) collective(name string) func() {
	r.collDepth++
	t0 := r.clock
	return func() {
		r.collDepth--
		if r.collDepth == 0 {
			r.obs.M.CollectiveSec += r.clock - t0
			r.obs.Span("collective", name, t0, r.clock)
			r.w.hCollSec.Observe(r.clock - t0)
		}
	}
}

// ID returns the rank number in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the number of ranks in the world.
func (r *Rank) Size() int { return r.w.n }

// Clock returns the rank's current virtual time in seconds.
func (r *Rank) Clock() float64 { return r.clock }

// Charge advances virtual time for a compute kernel: flops at efficiency
// eff plus bytes of main-memory traffic (roofline, no overlap).
func (r *Rank) Charge(flops, eff, bytes float64) {
	r.checkFaults()
	t0 := r.clock
	r.clock += r.w.cluster.Node.Time(flops, eff, bytes)
	r.obs.M.ComputeSec += r.clock - t0
	r.obs.Span("compute", "compute", t0, r.clock)
}

// ChargeDisk advances virtual time for local-disk streaming I/O.
func (r *Rank) ChargeDisk(bytes float64) {
	r.checkFaults()
	t0 := r.clock
	r.clock += r.w.cluster.Node.DiskTime(bytes)
	r.obs.M.DiskSec += r.clock - t0
	r.obs.Span("disk", "disk", t0, r.clock)
}

// Status describes a received message.
type Status struct {
	Source int
	Tag    int
	Bytes  int64
}

// Send delivers data to rank dst with the given tag. bytes is the accounted
// wire size (use SizeFloats and friends). Sends are buffered: the call
// returns after charging the sender-side overhead only.
func (r *Rank) Send(dst, tag int, data any, bytes int64) {
	r.sendAt(dst, tag, data, bytes, false, 0)
}

// sendAt implements Send; congested selects the loaded-network bandwidth
// used by dense collectives. A congested message leaves the sender's NIC
// no earlier than nicFree, when the NIC has streamed the messages posted
// before it, and sendAt returns when this one has left; collectives that
// wait for each round's reply pass zero.
func (r *Rank) sendAt(dst, tag int, data any, bytes int64, congested bool, nicFree float64) float64 {
	if dst < 0 || dst >= r.w.n {
		panic(fmt.Sprintf("mp: send to rank %d of %d", dst, r.w.n))
	}
	r.checkFaults()
	net := r.w.cluster.Net
	// Sender-side software overhead.
	t0 := r.clock
	r.clock += net.Prof.PerMsgOverheadSec
	var xfer float64
	left := r.clock
	if dst == r.id {
		xfer = net.TransferTime(r.id, r.id, bytes)
	} else if congested {
		p := net.Prof
		xfer = p.LatencySec
		if p.RendezvousBytes > 0 && bytes >= p.RendezvousBytes {
			xfer += p.RendezvousSec
		}
		bw := r.w.congestedRate()
		if h := net.Health; !h.Empty() {
			// Degraded endpoints squeeze the already-congested share, and
			// a flapping port at either end adds its latency spike.
			xfer += h.PortLatency(r.id, t0) + h.PortLatency(dst, t0)
			bw *= math.Min(h.CapFactor(netsim.LinkNICTx, r.id, t0),
				h.CapFactor(netsim.LinkNICRx, dst, t0))
		}
		// wire runs until the message has left the NIC, queueing included.
		wire := float64(bytes) * 8 / bw
		if nicFree > r.clock {
			wire += nicFree - r.clock
		}
		xfer += wire
		left = r.clock + wire
		r.w.congestedMsgs.Inc()
	} else {
		xfer = net.TransferTimeAt(r.id, dst, bytes, t0)
	}
	m := message{src: r.id, tag: tag, data: data, bytes: bytes, sent: t0, arrive: r.clock + xfer}
	r.w.eng.put(dst, m)
	r.observeSend(dst, bytes, t0, m.arrive)
	return left
}

// observeSend folds one message into the rank's totals, the per-rank
// breakdown, the per-module byte counters, the latency/size histograms, the
// structured event log, and — when tracing — the network rows (an async
// slice on the source module spanning the transfer).
func (r *Rank) observeSend(dst int, bytes int64, t0, arrive float64) {
	w := r.w
	coll := r.collDepth > 0
	r.sent.msgs++
	r.sent.bytes += bytes
	if coll {
		r.sent.collMsgs++
		r.sent.collBytes += bytes
	}
	r.obs.M.Messages++
	r.obs.M.Bytes += bytes
	r.obs.M.SendSec += w.cluster.Net.Prof.PerMsgOverheadSec
	r.obs.Span("comm", "send", t0, r.clock)
	r.obs.MsgSent(dst, bytes, t0, r.clock, arrive, coll)
	w.hMsgLatency.Observe(arrive - t0)
	w.hMsgBytes.Observe(float64(bytes))
	if coll {
		w.hCollBytes.Observe(float64(bytes))
	}
	if dst == r.id {
		return
	}
	topo := w.cluster.Net.Topo
	ms, md := topo.Module(r.id), topo.Module(dst)
	w.moduleTx[ms].Add(bytes)
	w.moduleRx[md].Add(bytes)
	if topo.Switch(r.id) != topo.Switch(dst) {
		w.trunkBytes.Add(bytes)
	}
	if w.netTracks != nil {
		r.msgSeq++
		id := int64(r.id)<<40 | r.msgSeq
		w.netTracks[ms].Async("net", "msg", id, r.clock, arrive)
	}
}

// Recv blocks until a message matching (src, tag) arrives (wildcards
// AnySource/AnyTag allowed), advances the clock to its arrival time, and
// returns its payload.
func (r *Rank) Recv(src, tag int) (any, Status) {
	r.checkFaults()
	m := r.takeBlocking(src, tag)
	st := r.deliver(m)
	r.checkFaults() // a crash scheduled during the wait fires now
	return m.data, st
}

// TryRecv is Recv without blocking. Unlike Recv it does not wait, and only
// returns a message whose virtual arrival time has been reached by this
// rank's clock OR any available matching message if the rank is idle-polling
// (we accept slight optimism here; the arrival max still applies).
//
// A loop that polls for remote progress must Yield on an empty poll: the
// pool of execution slots may be one wide, and a rank that spins on TryRecv
// holds its slot while the rank it waits for never runs.
func (r *Rank) TryRecv(src, tag int) (any, Status, bool) {
	r.checkFaults()
	m, ok := r.w.boxes[r.id].tryTake(src, tag)
	if !ok {
		return nil, Status{}, false
	}
	st := r.deliver(m)
	r.checkFaults()
	return m.data, st, true
}

// deliver advances the clock to a taken message's arrival and records the
// receive in the per-rank breakdown and event log.
func (r *Rank) deliver(m message) Status {
	waitFrom := r.clock
	waited := m.arrive > r.clock
	if waited {
		r.obs.M.WaitSec += m.arrive - r.clock
		r.obs.Span("comm", "wait", r.clock, m.arrive)
		r.clock = m.arrive
	}
	r.obs.MsgRecvd(m.src, m.bytes, m.sent, m.arrive, waitFrom, waited)
	return Status{Source: m.src, Tag: m.tag, Bytes: m.bytes}
}

// SendFloats sends a []float64 with proper wire-size accounting. The slice
// is copied, so the caller may keep mutating its buffer — matching the
// semantics of a real wire transfer (Send with a raw payload does NOT copy;
// callers passing mutable slices must copy themselves).
func (r *Rank) SendFloats(dst, tag int, xs []float64) {
	cp := append([]float64(nil), xs...)
	r.Send(dst, tag, cp, SizeFloats(len(cp)))
}

// RecvFloats receives a []float64 payload.
func (r *Rank) RecvFloats(src, tag int) ([]float64, Status) {
	d, st := r.Recv(src, tag)
	if d == nil {
		return nil, st
	}
	return d.([]float64), st
}

// SizeFloats returns the wire size of n float64 values.
func SizeFloats(n int) int64 { return int64(8 * n) }
