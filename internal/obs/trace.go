package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// The Chrome trace is written from the event log after the run (load the
// file in chrome://tracing or https://ui.perfetto.dev). A row is one (pid,
// tid) pair; pids group rows into processes by clock domain:
//
//   - PidRanks:   one row per rank, timestamps are VIRTUAL seconds.
//   - PidNet:     one row per switch module, virtual time; each message a
//     rank sends to another rank is an async slice on its source module's
//     row, from departure to arrival, so concurrent transfers stack.
//   - PidHost:    host-time rows for shared-memory phase spans (htree,
//     sph) that run outside any rank, in HOST seconds since retention began.
//
// Virtual and host rows live in different trace "processes" so the two time
// bases are never compared side by side. Rank and network rows are written
// in rank order and program order from buffers each rank writes alone, so
// they repeat byte for byte whenever the rank clocks do.
const (
	PidRanks = 1
	PidNet   = 2
	PidHost  = 4
)

// HostRow is one host-time row of the trace (its tid under PidHost).
type HostRow int

// The host rows: SPH step phases, grouped tree walks and tree builds.
const (
	HostSPH   HostRow = 2
	HostWalks HostRow = 3
	HostBuild HostRow = 4
)

var hostRowNames = [...]string{
	HostSPH:   "sph sim",
	HostWalks: "htree walks",
	HostBuild: "htree build",
}

// hostSpan is one host-time span on a host row.
type hostSpan struct {
	row HostRow
	SpanEvent
}

// HostNow returns seconds of host time since retention began; 0 without it.
func (o *Obs) HostNow() float64 {
	if o == nil || o.Events == nil {
		return 0
	}
	return time.Since(o.Events.t0).Seconds()
}

// HostSpan records a host-time span (h0, h1 from HostNow) on a host row; a
// no-op without retention. Safe from any goroutine: several ranks may build
// trees at once.
func (o *Obs) HostSpan(row HostRow, cat, name string, h0, h1 float64) {
	if o == nil || o.Events == nil {
		return
	}
	l := o.Events
	l.mu.Lock()
	l.host = append(l.host, hostSpan{row, SpanEvent{Cat: cat, Name: name, T0: h0, T1: h1}})
	l.mu.Unlock()
}

// NetModules records that the observed fabric has n switch modules, so the
// trace names a network row for each, idle ones included; a no-op without
// retention.
func (o *Obs) NetModules(n int) {
	if o == nil || o.Events == nil {
		return
	}
	l := o.Events
	l.mu.Lock()
	l.modules = max(l.modules, n)
	l.mu.Unlock()
}

// event is one trace_event entry; ts/dur are microseconds.
type event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// appendSpan appends s on row (pid, tid): a complete ("X") slice, or for an
// async span (ID set) a nestable "b"/"e" pair, so overlapping operations
// stack instead of corrupting the synchronous nesting.
func appendSpan(evs []event, s SpanEvent, pid, tid int) []event {
	if s.ID == 0 {
		return append(evs, event{Name: s.Name, Cat: s.Cat, Ph: "X",
			Ts: s.T0 * 1e6, Dur: (s.T1 - s.T0) * 1e6, Pid: pid, Tid: tid})
	}
	id := fmt.Sprintf("0x%x", s.ID)
	return append(evs,
		event{Name: s.Name, Cat: s.Cat, Ph: "b", Ts: s.T0 * 1e6, Pid: pid, Tid: tid, ID: id},
		event{Name: s.Name, Cat: s.Cat, Ph: "e", Ts: s.T1 * 1e6, Pid: pid, Tid: tid, ID: id},
	)
}

// processNames labels the pid groups in the viewer.
var processNames = map[int]string{
	PidRanks: "ranks (virtual time)",
	PidNet:   "network (virtual time)",
	PidHost:  "host phases (host time)",
}

// traceFile is the top-level JSON object of the Chrome trace format.
type traceFile struct {
	TraceEvents     []event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

// writeTrace serializes the log to w in trace_event JSON: rank rows, then
// network rows, then host rows, each row named by a metadata event. A
// network slice's id is rank<<40 | n for the rank's n-th send to another
// rank. Call after the runs return.
func (l *EventLog) writeTrace(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var evs []event
	if len(l.ranks) > 0 {
		evs = appendProcess(evs, PidRanks)
	}
	net := make([][]event, l.modules)
	for _, re := range l.ranks {
		if re == nil {
			continue
		}
		evs = append(evs, metaEvent("thread_name", rankName(re.Rank), PidRanks, re.Rank))
		for _, s := range re.Spans {
			evs = appendSpan(evs, s, PidRanks, re.Rank)
		}
		var n int64
		for _, s := range re.Sends {
			if s.Dst == re.Rank {
				continue
			}
			n++
			for s.Module >= len(net) {
				net = append(net, nil)
			}
			net[s.Module] = appendSpan(net[s.Module],
				SpanEvent{Cat: "net", Name: "msg", T0: s.Depart, T1: s.Arrive, ID: int64(re.Rank)<<40 | n},
				PidNet, s.Module)
		}
	}
	if len(net) > 0 {
		evs = appendProcess(evs, PidNet)
	}
	for m, mevs := range net {
		evs = append(evs, metaEvent("thread_name", fmt.Sprintf("module %d", m), PidNet, m))
		evs = append(evs, mevs...)
	}
	if len(l.host) > 0 {
		evs = appendProcess(evs, PidHost)
	}
	var named [len(hostRowNames)]bool
	for _, h := range l.host {
		if !named[h.row] {
			named[h.row] = true
			evs = append(evs, metaEvent("thread_name", hostRowNames[h.row], PidHost, int(h.row)))
		}
		evs = appendSpan(evs, h.SpanEvent, PidHost, int(h.row))
	}
	return json.NewEncoder(w).Encode(traceFile{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// appendProcess appends the metadata that names process pid and orders it
// by pid in the viewer.
func appendProcess(evs []event, pid int) []event {
	return append(evs, metaEvent("process_name", processNames[pid], pid, 0),
		event{Name: "process_sort_index", Ph: "M", Pid: pid, Cat: "__metadata",
			Args: map[string]any{"sort_index": pid}})
}

// metaEvent builds a trace metadata record ("M" phase) carrying a name.
func metaEvent(kind, name string, pid, tid int) event {
	return event{Name: kind, Ph: "M", Pid: pid, Tid: tid, Cat: "__metadata",
		Args: map[string]any{"name": name}}
}

func rankName(id int) string { return fmt.Sprintf("rank %d", id) }
