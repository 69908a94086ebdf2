package obs

import (
	"sync"
	"time"
)

// The event log is the one record of a run's virtual timeline. Each rank's
// spans, sends and receives are appended once, in program order, to its
// RankEvents; the analysis layer (internal/obs/analysis) walks them for
// critical-path extraction, per-phase imbalance and link-utilization
// timelines, and the Chrome trace (trace.go) is written from the same
// buffers, so the two cannot disagree.
//
// Writes follow the rank-ownership discipline of RankMetrics: each rank's
// slices are appended only by the owning rank goroutine during the run and
// read after mp.Run returns, so appends take no lock. Retention is opt-in
// (New(true) or EnableEvents) because a long run can accumulate millions of
// records; it is purely observational and never touches a clock.

// SpanEvent is one closed virtual-time span on a rank. ID is nonzero for
// an async span, one that may overlap others (an outstanding fetch).
type SpanEvent struct {
	Cat  string  `json:"cat"`
	Name string  `json:"name"`
	T0   float64 `json:"t0"`
	T1   float64 `json:"t1"`
	ID   int64   `json:"id,omitempty"`
}

// SendEvent is one message leaving a rank. T0 is the sender's clock when
// the send began, Depart the time the message starts to leave the sender's
// NIC (the clock after the per-message software overhead, or later, once
// the NIC has sent the messages before it), Arrive the virtual time it
// reaches the destination. Module is the sender's switch module.
type SendEvent struct {
	Dst        int     `json:"dst"`
	Module     int     `json:"module"`
	Bytes      int64   `json:"bytes"`
	T0         float64 `json:"t0"`
	Depart     float64 `json:"depart"`
	Arrive     float64 `json:"arrive"`
	Collective bool    `json:"collective,omitempty"`
}

// RecvEvent is one message consumed by a rank. SentAt is the sender's clock
// when the matching send began — the other end of the dependency edge the
// critical-path walk follows. Waited reports whether the receive blocked
// (the arrival was in this rank's future and the clock jumped forward from
// WaitFrom to Arrive); only waited receives are causal dependencies.
type RecvEvent struct {
	Src      int     `json:"src"`
	Bytes    int64   `json:"bytes"`
	SentAt   float64 `json:"sent_at"`
	Arrive   float64 `json:"arrive"`
	WaitFrom float64 `json:"wait_from"`
	Waited   bool    `json:"waited"`
}

// RankEvents is one rank's retained telemetry, in emission order.
type RankEvents struct {
	Rank  int         `json:"rank"`
	Spans []SpanEvent `json:"spans"`
	Sends []SendEvent `json:"sends"`
	Recvs []RecvEvent `json:"recvs"`
}

// EventLog owns the per-rank event buffers of one observed run (or several:
// buffers are reused by rank id across mp.Run calls on the same Obs), the
// host-time spans, and the module count of the widest fabric observed.
type EventLog struct {
	mu      sync.Mutex
	ranks   []*RankEvents
	host    []hostSpan
	modules int
	t0      time.Time // host-time epoch
}

// rank returns the buffer for a rank id, creating it on first use.
func (l *EventLog) rank(id int) *RankEvents {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.ranks) <= id {
		l.ranks = append(l.ranks, nil)
	}
	if l.ranks[id] == nil {
		l.ranks[id] = &RankEvents{Rank: id}
	}
	return l.ranks[id]
}

// Ranks returns the per-rank event buffers in rank order, skipping ids that
// never ran. Call after mp.Run returns; the buffers are not copied.
func (l *EventLog) Ranks() []*RankEvents {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*RankEvents, 0, len(l.ranks))
	for _, re := range l.ranks {
		if re != nil {
			out = append(out, re)
		}
	}
	return out
}

// EnableEvents switches on structured event retention for subsequent runs
// observed by o and returns o for chaining. Must be called before the ranks
// are created (i.e. before mp.Run).
func (o *Obs) EnableEvents() *Obs {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.Events == nil {
		o.Events = &EventLog{t0: time.Now()}
	}
	return o
}

// MsgSent records one departing message; no-op without event retention.
func (ro *RankObs) MsgSent(e SendEvent) {
	if ro == nil || ro.E == nil {
		return
	}
	ro.E.Sends = append(ro.E.Sends, e)
}

// MsgRecvd records one consumed message; no-op without event retention.
func (ro *RankObs) MsgRecvd(src int, bytes int64, sentAt, arrive, waitFrom float64, waited bool) {
	if ro == nil || ro.E == nil {
		return
	}
	ro.E.Recvs = append(ro.E.Recvs, RecvEvent{
		Src: src, Bytes: bytes, SentAt: sentAt, Arrive: arrive,
		WaitFrom: waitFrom, Waited: waited,
	})
}
