package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// The tracer records spans on named tracks and serializes them in the
// Chrome trace_event format (load the file in chrome://tracing or
// https://ui.perfetto.dev). A track maps to one (pid, tid) row; pids group
// rows into processes by clock domain:
//
//   - PidRanks:   one row per rank, timestamps are VIRTUAL seconds.
//   - PidNet:     one row per switch module (plus the trunk), virtual time;
//     message transits are async slices so concurrent transfers stack.
//   - PidHost:    host-time rows for shared-memory phase spans (htree,
//     sph) that run outside any rank, timestamps are HOST seconds since the
//     tracer was created.
//
// Virtual and host rows deliberately live in different trace "processes" so
// the two time bases are never compared side by side within one group.
const (
	PidRanks = 1
	PidNet   = 2
	PidHost  = 4
)

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

// Track is one trace row. Span appends are guarded by a per-track mutex:
// rank rows are single-writer (uncontended), network rows take writes from
// every sending rank.
type Track struct {
	pid, tid int
	name     string
	mu       sync.Mutex
	events   []event
}

// Tracer owns the track set and the host-time epoch.
type Tracer struct {
	mu     sync.Mutex
	tracks []*Track
	byID   map[[2]int]*Track
	t0     time.Time
}

// NewTracer returns an empty tracer; host timestamps count from now.
func NewTracer() *Tracer {
	return &Tracer{byID: map[[2]int]*Track{}, t0: time.Now()}
}

// HostNow returns seconds of host time since the tracer was created.
func (t *Tracer) HostNow() float64 { return time.Since(t.t0).Seconds() }

// Track returns the row for (pid, tid), creating it with the given display
// name on first use.
func (t *Tracer) Track(pid, tid int, name string) *Track {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := [2]int{pid, tid}
	if tr, ok := t.byID[k]; ok {
		return tr
	}
	tr := &Track{pid: pid, tid: tid, name: name}
	t.byID[k] = tr
	t.tracks = append(t.tracks, tr)
	return tr
}

// Span records a complete ("X") slice on the track; t0/t1 in seconds of the
// track's clock domain. Zero-length spans are kept (they mark instants).
func (tr *Track) Span(cat, name string, t0, t1 float64) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.events = append(tr.events, event{
		Name: name, Cat: cat, Ph: "X",
		Ts: t0 * 1e6, Dur: (t1 - t0) * 1e6,
		Pid: tr.pid, Tid: tr.tid,
	})
	tr.mu.Unlock()
}

// Async records a nestable async slice ("b"/"e" pair) so overlapping
// operations — in-flight messages, outstanding fetches — stack instead of
// corrupting the synchronous nesting.
func (tr *Track) Async(cat, name string, id int64, t0, t1 float64) {
	if tr == nil {
		return
	}
	ids := fmt.Sprintf("0x%x", id)
	tr.mu.Lock()
	tr.events = append(tr.events,
		event{Name: name, Cat: cat, Ph: "b", Ts: t0 * 1e6, Pid: tr.pid, Tid: tr.tid, ID: ids},
		event{Name: name, Cat: cat, Ph: "e", Ts: t1 * 1e6, Pid: tr.pid, Tid: tr.tid, ID: ids},
	)
	tr.mu.Unlock()
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

// WriteJSON serializes every track to w in trace_event JSON. Metadata
// events name each process and thread; events keep per-track append order,
// tracks are emitted in creation order.
func (t *Tracer) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	tracks := append([]*Track(nil), t.tracks...)
	t.mu.Unlock()

	var evs []event
	seenPid := map[int]bool{}
	for _, tr := range tracks {
		if !seenPid[tr.pid] {
			seenPid[tr.pid] = true
			evs = append(evs, metaEvent("process_name", processNames[tr.pid], tr.pid, 0))
			evs = append(evs, metaSortEvent(tr.pid))
		}
		evs = append(evs, metaEvent("thread_name", tr.name, tr.pid, tr.tid))
		tr.mu.Lock()
		evs = append(evs, tr.events...)
		tr.mu.Unlock()
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// metaEvent builds a trace metadata record ("M" phase) carrying a name.
func metaEvent(kind, name string, pid, tid int) event {
	return event{Name: kind, Ph: "M", Pid: pid, Tid: tid, Cat: "__metadata",
		Args: map[string]any{"name": name}}
}

// metaSortEvent orders process groups by pid in the viewer.
func metaSortEvent(pid int) event {
	return event{Name: "process_sort_index", Ph: "M", Pid: pid, Cat: "__metadata",
		Args: map[string]any{"sort_index": pid}}
}

func rankName(id int) string { return fmt.Sprintf("rank %d", id) }
