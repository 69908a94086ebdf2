package ledger

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"
)

// Group is one comparable run history: the records sharing a config digest
// and a host key, oldest first — the unit every trend and gate judges.
type Group struct {
	Digest, Host string
	Recs         []Record
}

// GroupRecords splits recs (oldest first, as Records returns them) into
// comparable groups, the group with the newest run first.
func GroupRecords(recs []Record) []Group {
	index := map[string]int{}
	var out []Group
	for _, r := range recs {
		host := r.Build.HostKey()
		k := r.ConfigDigest + "|" + host
		i, ok := index[k]
		if !ok {
			i = len(out)
			index[k] = i
			out = append(out, Group{Digest: r.ConfigDigest, Host: host})
		}
		out[i].Recs = append(out[i].Recs, r)
	}
	newest := func(g Group) int64 { return g.Recs[len(g.Recs)-1].TimeUnixNS }
	sort.SliceStable(out, func(i, j int) bool { return newest(out[i]) > newest(out[j]) })
	return out
}

// recentRuns is how many run IDs a group's view lists, newest first.
const recentRuns = 8

// WriteGroups prints each group — a header naming the run the rows judge,
// one WriteTrends row per metric of Trend(g.Recs, lastK), the IDs of its
// newest runs — then a blank line, and reports whether the judged run of
// any group regressed. `ssbench trend` and the /runs page both print
// through it.
func WriteGroups(w io.Writer, groups []Group, lastK int) (regressed bool) {
	for _, g := range groups {
		latest := g.Recs[len(g.Recs)-1]
		judged := "no run with metrics"
		if i := underTest(g.Recs); i >= 0 {
			judged = "judged " + g.Recs[i].ID
		}
		fmt.Fprintf(w, "config %.12s  %s %s  host %s  %d runs (%s)\n",
			g.Digest, latest.Config.Tool, latest.Config.Experiment, g.Host, len(g.Recs), judged)
		trends := Trend(g.Recs, lastK)
		WriteTrends(w, trends)
		regressed = regressed || AnyRegression(trends)
		fmt.Fprint(w, "  runs")
		for i := len(g.Recs) - 1; i >= max(0, len(g.Recs)-recentRuns); i-- {
			fmt.Fprint(w, " ", g.Recs[i].ID)
		}
		fmt.Fprint(w, "\n\n")
	}
	return regressed
}

// WriteTrends prints one row per metric: history sparkline, latest value,
// baseline median, verdict and what made it.
func WriteTrends(w io.Writer, trends []MetricTrend) {
	for _, t := range trends {
		verdict := string(t.Verdict)
		if t.Detail != "" {
			verdict += "  " + t.Detail
		}
		fmt.Fprintf(w, "  %-26s %-12s latest %.6g  median %.6g  %s\n",
			t.Name, TextSparkline(t.Values), t.Latest, t.Median, verdict)
	}
}

// Handler serves the ledger as plain text: /runs prints every group on
// every host (WriteGroups), /runs/{id} one record with its metrics gated
// against the comparable runs before it, /runs/{id}/blob/{name} the raw
// artifact bytes. The CLIs mount it on their live servers. A nil store
// (the ledger is off) has no handler.
func (s *Store) Handler() http.Handler {
	if s == nil {
		return nil
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/runs", func(w http.ResponseWriter, r *http.Request) {
		recs, err := s.Records()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if len(recs) == 0 {
			fmt.Fprintf(w, "no runs recorded in %s\n", s.Dir)
			return
		}
		WriteGroups(w, GroupRecords(recs), 10)
	})
	mux.HandleFunc("/runs/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/runs/")
		parts := strings.SplitN(rest, "/", 3)
		rec, err := s.Find(parts[0])
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		if len(parts) == 3 && parts[1] == "blob" {
			digest, ok := rec.Artifacts[parts[2]]
			if !ok {
				http.Error(w, "no such artifact", http.StatusNotFound)
				return
			}
			data, err := s.ReadBlob(digest)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(data)
			return
		}
		recs, err := s.Records()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeRun(w, rec, recs)
	})
	return mux
}

// writeRun prints one record: what ran, where and from which build, its
// config, its metrics gated against the comparable runs in recs before it,
// and its artifacts' digests.
func writeRun(w io.Writer, rec *Record, recs []Record) {
	var baseline []Record
	for _, r := range Comparable(recs, rec.ConfigDigest, rec.Build.HostKey()) {
		if r.ID != rec.ID && r.TimeUnixNS <= rec.TimeUnixNS {
			baseline = append(baseline, r)
		}
	}
	cfg, _ := json.MarshalIndent(rec.Config, "", "  ") // plain data: cannot fail
	fmt.Fprintf(w, "run %s  %s %s  %s\nconfig %s\nhost %s\nbuild %s\n%s\n\n",
		rec.ID, rec.Config.Tool, rec.Config.Experiment, rec.Time().Format(time.RFC3339),
		rec.ConfigDigest, rec.Build.HostKey(), rec.Build.String(), cfg)
	fmt.Fprintf(w, "metrics vs %d earlier comparable runs\n", len(baseline))
	WriteTrends(w, GateAgainst(baseline, rec.Metrics, 10))
	names := make([]string, 0, len(rec.Artifacts))
	for name := range rec.Artifacts {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintln(w, "\nartifacts")
	}
	for _, name := range names {
		fmt.Fprintf(w, "  %s  %s\n", name, rec.Artifacts[name])
	}
}
