// Package live is the opt-in stdlib net/http exposition of a running
// simulation: the obs metrics registry as Prometheus text and JSON, the
// run-progress view (step fraction, virtual-sec/sec rate, ETA) that
// obs.Progress computes from the step marks engines publish, and pprof.
//
// Every endpoint reads the current Obs when it is requested; nothing runs
// between requests, and nothing a request reads touches virtual time, so a
// run served live is bit-identical to one that is not (pinned by
// core.TestLiveReadersBitIdentical).
package live

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync/atomic"

	"spacesim/internal/obs"
)

// Handler returns the live-telemetry HTTP handler over the Obs that cur
// returns at each request (nil while none is attached):
//
//	/metrics        Prometheus text exposition (counters, gauges,
//	                histogram summaries with p50/p95/p99, text metrics as
//	                labeled info gauges)
//	/metrics.json   typed obs.MetricsSnapshot of the registry (the per-rank
//	                breakdowns, which rank goroutines write without locks,
//	                are left out)
//	/progress.json  run progress: step fraction, rate, ETA (obs.ProgressSnapshot)
//	/debug/pprof/   net/http/pprof (profile, heap, trace, ...)
//
// All endpoints are read-only and safe while a run is in flight.
//
// A non-nil runs handler (the run ledger's text view) serves /runs and the
// tree under it; live stays ignorant of what it hosts, which keeps the
// dependency arrow pointing into this package only.
func Handler(cur func() *obs.Obs, runs http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writePrometheus(w, cur())
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		o := cur()
		if o == nil {
			http.Error(w, "no observation attached", http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, o.Reg.MetricsSnapshot())
	})
	mux.HandleFunc("/progress.json", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, cur().Progress().Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	index := "spacesim live telemetry\n\n/metrics\n/metrics.json\n/progress.json\n/debug/pprof/\n"
	if runs != nil {
		mux.Handle("/runs", runs)
		mux.Handle("/runs/", runs)
		index += "/runs\n"
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, index)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// promName sanitizes a dotted metric name into the Prometheus name
// alphabet, prefixed so the exposition namespaces cleanly.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + len("spacesim_"))
	b.WriteString("spacesim_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9' && i > 0, c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// writePrometheus renders the current registry in the text exposition
// format (sorted by name — deterministic output).
func writePrometheus(w http.ResponseWriter, o *obs.Obs) {
	if o == nil {
		return
	}
	snap := o.Reg.MetricsSnapshot()

	names := make([]string, 0, len(snap.Counters))
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, snap.Counters[n])
	}

	names = names[:0]
	for n := range snap.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", pn, pn, snap.Gauges[n])
	}

	names = names[:0]
	for n := range snap.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := snap.Histograms[n]
		pn := promName(n)
		fmt.Fprintf(w, "# TYPE %s summary\n", pn)
		fmt.Fprintf(w, "%s{quantile=\"0.5\"} %g\n", pn, h.P50)
		fmt.Fprintf(w, "%s{quantile=\"0.95\"} %g\n", pn, h.P95)
		fmt.Fprintf(w, "%s{quantile=\"0.99\"} %g\n", pn, h.P99)
		fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", pn, h.Sum, pn, h.Count)
	}

	names = names[:0]
	for n := range snap.Texts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		v := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(snap.Texts[n])
		fmt.Fprintf(w, "# TYPE %s gauge\n%s{value=%q} 1\n", pn, pn, v)
	}
}

// Server is a running live-telemetry HTTP server.
type Server struct {
	ln     net.Listener
	srv    *http.Server
	closed atomic.Bool
}

// Serve starts an HTTP server over cur's Obs on addr (host:port; port 0 picks a
// free port) and returns once the listener is bound. The server runs until
// Close. A non-nil runs handler serves /runs, as in Handler.
func Serve(addr string, cur func() *obs.Obs, runs http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(cur, runs)}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the server down. Idempotent.
func (s *Server) Close() error {
	if s == nil || !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	return s.srv.Close()
}
