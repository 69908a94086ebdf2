package mp

// Asynchronous Batched Messages (ABM): the paper's latency-hiding paradigm
// for the hashed oct-tree traversal. Remote-data requests are batched per
// destination and sent as single messages; the requesting computation is
// "put aside" on a software queue (the continuation) and resumed when the
// reply arrives. Handlers have an interface modeled after active messages:
// the owner of the data runs a registered function on each request item and
// the responses are batched back.
//
// Handlers must not issue new Requests (replies only); this keeps the
// quiescence protocol (a polling-safe double-counting consensus) simple and
// is all the treecode needs.

import (
	"spacesim/internal/obs"
)

// Handler serves one request item and returns the response payload along
// with its accounted wire size.
type Handler func(src int, req any) (resp any, respBytes int64)

// abmItem is one request or response within a batch.
type abmItem struct {
	seq     int64
	handler int
	payload any
	bytes   int64
}

// abmEnvelope is the wire unit: a batch of requests or responses.
type abmEnvelope struct {
	isResp bool
	items  []abmItem
}

// ABM is the active-message endpoint for one rank.
type ABM struct {
	r        *Rank
	handlers map[int]Handler

	batch      [][]abmItem // per-destination pending requests
	batchBytes []int64

	// pending[seq] is the continuation of request seq, nil once its
	// response is in; Quiesce empties it, so sequence numbers restart at 0.
	pending []func(resp any)

	// quiescence counters
	sent    int64 // requests issued (remote only)
	gotResp int64 // responses received
	served  int64 // requests handled for others

	// ctlRound stamps quiescence-protocol tags so separate consensus
	// rounds cannot confuse each other's messages.
	ctlRound int

	// maxBatchItems and maxBatchBytes trigger an automatic flush.
	maxBatchItems int
	maxBatchBytes int64

	// metric counters, resolved once at construction.
	cBatches, cItems, cServed, cLocal *obs.Counter
}

// tagABMCtlBase is the start of the reserved tag range for the quiescence
// protocol (tags decrease from here, cycling over 1000 rounds).
const tagABMCtlBase = -200

// NewABM creates the active-message endpoint for rank r.
func NewABM(r *Rank) *ABM {
	reg := r.w.obs.Reg
	return &ABM{
		r:             r,
		handlers:      map[int]Handler{},
		batch:         make([][]abmItem, r.Size()),
		batchBytes:    make([]int64, r.Size()),
		maxBatchItems: 32,
		maxBatchBytes: 16 << 10,
		cBatches:      reg.Counter("mp.abm.batches"),
		cItems:        reg.Counter("mp.abm.items"),
		cServed:       reg.Counter("mp.abm.served"),
		cLocal:        reg.Counter("mp.abm.local_requests"),
	}
}

// Handle registers fn for handler id. All ranks must register the same ids.
func (a *ABM) Handle(id int, fn Handler) { a.handlers[id] = fn }

// Outstanding returns the number of requests awaiting responses.
func (a *ABM) Outstanding() int { return int(a.sent - a.gotResp) }

// Request asks rank dst to run handler id on payload; cont is invoked with
// the response when it arrives (during a Poll). Local requests execute
// immediately.
func (a *ABM) Request(dst, id int, payload any, bytes int64, cont func(resp any)) {
	if dst == a.r.id {
		fn, ok := a.handlers[id]
		if !ok {
			panic("mp: ABM request for unregistered handler")
		}
		a.cLocal.Inc()
		resp, _ := fn(a.r.id, payload)
		cont(resp)
		return
	}
	seq := int64(len(a.pending))
	a.pending = append(a.pending, cont)
	a.sent++
	a.batch[dst] = append(a.batch[dst], abmItem{seq: seq, handler: id, payload: payload, bytes: bytes})
	a.batchBytes[dst] += bytes
	if len(a.batch[dst]) >= a.maxBatchItems || a.batchBytes[dst] >= a.maxBatchBytes {
		a.Flush(dst)
	}
}

// Flush sends any batched requests for dst.
func (a *ABM) Flush(dst int) {
	if len(a.batch[dst]) == 0 {
		return
	}
	env := abmEnvelope{items: a.batch[dst]}
	a.cBatches.Inc()
	a.cItems.Add(int64(len(env.items)))
	a.r.Send(dst, tagABM, env, a.batchBytes[dst]+16*int64(len(env.items)))
	a.batch[dst] = nil
	a.batchBytes[dst] = 0
}

// FlushAll sends every pending batch.
func (a *ABM) FlushAll() {
	for dst := range a.batch {
		a.Flush(dst)
	}
}

// Poll drains arrived ABM traffic: serves request batches (sending response
// batches back) and delivers responses to their continuations. It returns
// the number of envelopes processed; it never blocks. A loop that polls for
// remote progress must Yield on an empty poll (see Rank.TryRecv).
func (a *ABM) Poll() int {
	n := 0
	for {
		data, st, ok := a.r.TryRecv(AnySource, tagABM)
		if !ok {
			return n
		}
		n++
		env := data.(abmEnvelope)
		if env.isResp {
			for _, it := range env.items {
				cont := a.pending[it.seq]
				a.pending[it.seq] = nil
				a.gotResp++
				if cont != nil {
					cont(it.payload)
				}
			}
			continue
		}
		resp := abmEnvelope{isResp: true, items: make([]abmItem, 0, len(env.items))}
		var respBytes int64
		for _, it := range env.items {
			fn, ok := a.handlers[it.handler]
			if !ok {
				panic("mp: ABM request for unregistered handler")
			}
			out, nb := fn(st.Source, it.payload)
			a.served++
			a.cServed.Inc()
			resp.items = append(resp.items, abmItem{seq: it.seq, payload: out, bytes: nb})
			respBytes += nb
		}
		a.r.Send(st.Source, tagABM, resp, respBytes+16*int64(len(resp.items)))
	}
}

// Quiesce completes all outstanding traffic world-wide: it flushes local
// batches, serves incoming requests, waits for all local responses, and
// returns only when every rank agrees that the global number of requests
// sent equals the global number served and received — checked twice with no
// change in between (the classic double-counting termination test). While
// waiting it keeps polling, so no rank can starve another.
func (a *ABM) Quiesce() {
	prev := [3]float64{-1, -1, -1}
	for {
		a.FlushAll()
		for a.sent > a.gotResp {
			if a.Poll() == 0 {
				// Hand the execution slot to a ready rank: the one whose
				// reply we await may be queued behind us.
				a.r.Yield()
			}
		}
		sums := a.pollingAllreduce3(float64(a.sent), float64(a.gotResp), float64(a.served))
		if sums[0] == sums[1] && sums[1] == sums[2] && sums == prev {
			a.pending = a.pending[:0]
			return
		}
		prev = sums
	}
}

// pollingAllreduce3 sums a 3-vector across ranks (recursive doubling with
// fold phases for non-power-of-two sizes), but every blocking point keeps
// serving ABM traffic so termination detection cannot deadlock with
// in-flight requests.
func (a *ABM) pollingAllreduce3(x, y, z float64) [3]float64 {
	r := a.r
	n := r.Size()
	acc := []float64{x, y, z}
	if n == 1 {
		return [3]float64{x, y, z}
	}
	// The consensus is a collective; attribute its traffic as such.
	defer r.collective("abm-quiesce")()
	// Round-stamped tags prevent cross-round confusion between invocations.
	a.ctlRound++
	tag := tagABMCtlBase - a.ctlRound%1000

	recvFrom := func(partner int) []float64 {
		for {
			d, _, ok := r.TryRecv(partner, tag)
			if ok {
				return d.([]float64)
			}
			if a.Poll() == 0 {
				a.r.Yield()
			}
		}
	}

	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2
	// Fold the excess ranks onto [0, rem), then double, then unfold.
	if r.id >= pof2 {
		r.SendFloats(r.id-pof2, tag, acc)
		res := recvFrom(r.id - pof2)
		return [3]float64{res[0], res[1], res[2]}
	}
	if r.id < rem {
		other := recvFrom(r.id + pof2)
		for i := range acc {
			acc[i] += other[i]
		}
	}
	for bit := 1; bit < pof2; bit *= 2 {
		partner := r.id ^ bit
		r.SendFloats(partner, tag, acc)
		other := recvFrom(partner)
		for i := range acc {
			acc[i] += other[i]
		}
	}
	if r.id < rem {
		r.SendFloats(r.id+pof2, tag, acc)
	}
	return [3]float64{acc[0], acc[1], acc[2]}
}
