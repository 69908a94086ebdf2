package ledger

import (
	"encoding/json"
	"fmt"
	"html/template"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"time"
)

// The dashboard's palette as CSS custom properties: light and dark values
// swap in one place, the markup is written against roles. Colors follow the
// repo's chart conventions — neutral warm surfaces, one categorical blue
// for series, fixed status colors that always ride with a text label.
const dashCSS = `
:root {
  color-scheme: light dark;
  --page:       #f9f9f7;  --surface-1: #fcfcfb;
  --text-1:     #0b0b0b;  --text-2:    #52514e;  --muted: #898781;
  --grid:       #e1e0d9;  --border:    rgba(11,11,11,0.10);
  --series-1:   #2a78d6;
  --good:       #0ca30c;  --warning:   #fab219;  --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    --page:     #0d0d0d;  --surface-1: #1a1a19;
    --text-1:   #ffffff;  --text-2:    #c3c2b7;
    --grid:     #2c2c2a;  --border:    rgba(255,255,255,0.10);
    --series-1: #3987e5;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page); color: var(--text-1);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 0 0 8px; }
.sub { color: var(--text-2); margin: 0 0 20px; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 18px; margin-bottom: 18px;
}
table { border-collapse: collapse; width: 100%; }
th, td { text-align: left; padding: 5px 14px 5px 0; border-bottom: 1px solid var(--grid); }
th { color: var(--text-2); font-weight: 500; font-size: 12px; }
td.num { font-variant-numeric: tabular-nums; }
tr:last-child td { border-bottom: none; }
.badge {
  display: inline-block; padding: 0 7px; border-radius: 9px;
  font-size: 11px; font-weight: 600; border: 1px solid currentColor;
}
.badge.ok        { color: var(--good); }
.badge.regression{ color: var(--critical); }
.badge.improved  { color: var(--good); }
.badge.info, .badge.no_baseline { color: var(--muted); }
.spark polyline { stroke: var(--series-1); }
.spark circle   { fill: var(--series-1); }
a { color: var(--series-1); text-decoration: none; }
a:hover { text-decoration: underline; }
code, .mono { font-family: ui-monospace, monospace; font-size: 12px; }
.meta { color: var(--text-2); font-size: 12px; }
pre {
  background: var(--page); border: 1px solid var(--grid); border-radius: 6px;
  padding: 10px 12px; overflow-x: auto; font-size: 12px;
}
.grid { display: flex; flex-wrap: wrap; gap: 14px; }
.grid .cell { min-width: 180px; }
.cell .meta { margin: 2px 0 0; }
`

// svgSpark renders values as an inline SVG sparkline: a thin polyline
// normalized to the series range with an endpoint dot and a tooltip
// carrying the latest value.
func svgSpark(values []float64, tooltip string) template.HTML {
	const w, h, pad = 140, 28, 3.0
	if len(values) == 0 {
		return ""
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	xAt := func(i int) float64 {
		if len(values) == 1 {
			return w / 2
		}
		return pad + float64(i)/float64(len(values)-1)*(w-2*pad)
	}
	yAt := func(v float64) float64 { return h - pad - (v-lo)/span*(h-2*pad) }
	var pts strings.Builder
	for i, v := range values {
		if i > 0 {
			pts.WriteByte(' ')
		}
		fmt.Fprintf(&pts, "%.1f,%.1f", xAt(i), yAt(v))
	}
	lastX, lastY := xAt(len(values)-1), yAt(values[len(values)-1])
	var b strings.Builder
	fmt.Fprintf(&b, `<svg class="spark" width="%d" height="%d" viewBox="0 0 %d %d" role="img">`, w, h, w, h)
	fmt.Fprintf(&b, `<title>%s</title>`, template.HTMLEscapeString(tooltip))
	if len(values) > 1 {
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>`, pts.String())
	}
	fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="2.5"/></svg>`, lastX, lastY)
	return template.HTML(b.String())
}

func fmtMetric(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e6 || math.Abs(v) < 1e-3:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

func verdictLabel(v Verdict) string {
	if v == VerdictNoBaseline {
		return "no baseline"
	}
	return string(v)
}

type metricRow struct {
	Name    string
	Latest  string
	Verdict Verdict
	Label   string
	Detail  string
	Spark   template.HTML
}

type runRow struct {
	ID      string
	Time    string
	Rev     string
	Tool    string
	Exp     string
	Metrics int
}

type groupView struct {
	Digest  string
	Short   string
	Title   string
	HostKey string
	Count   int
	Metrics []metricRow
	Runs    []runRow
}

type indexPage struct {
	Title  string
	Static bool
	Groups []groupView
	Empty  bool
	Dir    string
}

var indexTmpl = template.Must(template.New("index").Parse(`<!doctype html>
<html lang="en"><head><meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{{.Title}}</title><style>` + dashCSS + `</style></head><body>
<h1>{{.Title}}</h1>
<p class="sub">Run ledger at <code>{{.Dir}}</code> — grouped by config digest and host; verdicts are robust median/MAD gates over each group's history.</p>
{{if .Empty}}<div class="card"><p class="meta">No runs recorded yet. Run <code>spacesim -ledger {{.Dir}} -report</code> to append one.</p></div>{{end}}
{{range .Groups}}
<div class="card">
  <h2>{{.Title}}</h2>
  <p class="meta">config <code>{{.Short}}</code> · host {{.HostKey}} · {{.Count}} run{{if ne .Count 1}}s{{end}}</p>
  <table>
    <thead><tr><th>metric</th><th>history</th><th>latest</th><th>verdict</th><th></th></tr></thead>
    <tbody>
    {{range .Metrics}}
      <tr>
        <td>{{.Name}}</td>
        <td>{{.Spark}}</td>
        <td class="num">{{.Latest}}</td>
        <td><span class="badge {{.Verdict}}">{{.Label}}</span></td>
        <td class="meta">{{.Detail}}</td>
      </tr>
    {{end}}
    </tbody>
  </table>
  {{if .Runs}}
  <p class="meta" style="margin-bottom:4px">recent runs</p>
  <table>
    <thead><tr><th>id</th><th>when</th><th>tool</th><th>experiment</th><th>rev</th></tr></thead>
    <tbody>
    {{range .Runs}}
      <tr>
        <td>{{if $.Static}}<code>{{.ID}}</code>{{else}}<a href="/runs/{{.ID}}"><code>{{.ID}}</code></a>{{end}}</td>
        <td class="meta">{{.Time}}</td>
        <td>{{.Tool}}</td><td>{{.Exp}}</td>
        <td class="mono">{{.Rev}}</td>
      </tr>
    {{end}}
    </tbody>
  </table>
  {{end}}
</div>
{{end}}
</body></html>
`))

type artifactRow struct {
	Name   string
	Digest string
}

type seriesView struct {
	Name  string
	Spark template.HTML
	Last  string
}

type detailPage struct {
	Title      string
	ID         string
	Time       string
	Tool       string
	Exp        string
	Digest     string
	HostKey    string
	Build      string
	ConfigJSON string
	Metrics    []metricRow
	Artifacts  []artifactRow
	Series     []seriesView
}

var detailTmpl = template.Must(template.New("detail").Parse(`<!doctype html>
<html lang="en"><head><meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{{.Title}}</title><style>` + dashCSS + `</style></head><body>
<h1>run <code>{{.ID}}</code></h1>
<p class="sub"><a href="/runs">&larr; all runs</a></p>
<div class="card">
  <h2>{{.Tool}} {{.Exp}} · {{.Time}}</h2>
  <p class="meta">config <code>{{.Digest}}</code> · host {{.HostKey}}</p>
  <p class="meta">{{.Build}}</p>
  <pre>{{.ConfigJSON}}</pre>
</div>
<div class="card">
  <h2>metrics vs group baseline</h2>
  <table>
    <thead><tr><th>metric</th><th>history</th><th>value</th><th>verdict</th><th></th></tr></thead>
    <tbody>
    {{range .Metrics}}
      <tr>
        <td>{{.Name}}</td>
        <td>{{.Spark}}</td>
        <td class="num">{{.Latest}}</td>
        <td><span class="badge {{.Verdict}}">{{.Label}}</span></td>
        <td class="meta">{{.Detail}}</td>
      </tr>
    {{end}}
    </tbody>
  </table>
</div>
{{if .Artifacts}}
<div class="card">
  <h2>artifacts</h2>
  <table>
    <thead><tr><th>name</th><th>sha256</th></tr></thead>
    <tbody>
    {{range .Artifacts}}
      <tr><td><a href="/runs/{{$.ID}}/blob/{{.Name}}">{{.Name}}</a></td><td class="mono">{{.Digest}}</td></tr>
    {{end}}
    </tbody>
  </table>
</div>
{{end}}
{{if .Series}}
<div class="card">
  <h2>run timelines</h2>
  <p class="meta">sampled series from the run's live telemetry and link-utilization timelines</p>
  <div class="grid">
  {{range .Series}}
    <div class="cell">{{.Spark}}<p class="meta">{{.Name}} · {{.Last}}</p></div>
  {{end}}
  </div>
</div>
{{end}}
</body></html>
`))

// groupKey clusters records for the index: one dashboard group per
// (config digest, host) pair — exactly the comparability unit of the gates.
func groupKey(r Record) string { return r.ConfigDigest + "|" + r.Build.HostKey() }

func buildGroups(recs []Record, static bool) []groupView {
	byKey := map[string][]Record{}
	var order []string
	for _, r := range recs {
		k := groupKey(r)
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], r)
	}
	// Newest-activity groups first.
	sort.SliceStable(order, func(i, j int) bool {
		gi, gj := byKey[order[i]], byKey[order[j]]
		return gi[len(gi)-1].TimeUnixNS > gj[len(gj)-1].TimeUnixNS
	})
	var out []groupView
	for _, k := range order {
		group := byKey[k]
		latest := group[len(group)-1]
		trends := Trend(group, 10)
		gv := groupView{
			Digest:  latest.ConfigDigest,
			Short:   shortDigest(latest.ConfigDigest),
			Title:   latest.Config.Tool + " " + latest.Config.Experiment + configSummary(latest.Config),
			HostKey: latest.Build.HostKey(),
			Count:   len(group),
		}
		for _, t := range trends {
			gv.Metrics = append(gv.Metrics, metricRow{
				Name:    t.Name,
				Latest:  fmtMetric(t.Latest),
				Verdict: t.Verdict,
				Label:   verdictLabel(t.Verdict),
				Detail:  t.Detail,
				Spark: svgSpark(t.Values,
					fmt.Sprintf("%s: %s over %d runs", t.Name, fmtMetric(t.Latest), len(t.Values))),
			})
		}
		for i := len(group) - 1; i >= 0 && len(gv.Runs) < 8; i-- {
			r := group[i]
			gv.Runs = append(gv.Runs, runRow{
				ID:   r.ID,
				Time: r.Time().Format(time.RFC3339),
				Rev:  r.Build.ShortRev(),
				Tool: r.Config.Tool,
				Exp:  r.Config.Experiment,
			})
		}
		out = append(out, gv)
	}
	return out
}

func shortDigest(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

func configSummary(c Config) string {
	var parts []string
	if c.N > 0 {
		parts = append(parts, fmt.Sprintf("n=%d", c.N))
	}
	if c.Ranks > 0 {
		parts = append(parts, fmt.Sprintf("ranks=%d", c.Ranks))
	}
	if c.Engine != "" {
		parts = append(parts, "engine="+c.Engine)
	}
	if len(parts) == 0 {
		return ""
	}
	return " (" + strings.Join(parts, " ") + ")"
}

// RenderIndexHTML writes the dashboard index as a standalone HTML page
// (the ssbench report -html output) — same template as /runs, run links
// rendered as plain IDs.
func (s *Store) RenderIndexHTML(w io.Writer) error {
	recs, err := s.Records()
	if err != nil {
		return err
	}
	return indexTmpl.Execute(w, indexPage{
		Title:  "spacesim run ledger",
		Static: true,
		Groups: buildGroups(recs, true),
		Empty:  len(recs) == 0,
		Dir:    s.Dir,
	})
}

// artifactSeries pulls plot-able timelines out of an artifact blob: the
// live sampler's ring series (shared virtual-time columns) and the
// analysis link-utilization timelines, decoded generically.
func artifactSeries(name string, data []byte) []seriesView {
	var top map[string]any
	if err := json.Unmarshal(data, &top); err != nil {
		return nil
	}
	var out []seriesView
	addSeries := func(label string, vals []float64) {
		if len(vals) < 2 {
			return
		}
		out = append(out, seriesView{
			Name:  label,
			Last:  fmtMetric(vals[len(vals)-1]),
			Spark: svgSpark(vals, fmt.Sprintf("%s (%d samples)", label, len(vals))),
		})
	}
	if live, ok := top["live"].(map[string]any); ok {
		if series, ok := live["series"].([]any); ok {
			for _, sv := range series {
				m, ok := sv.(map[string]any)
				if !ok {
					continue
				}
				addSeries(str(m["name"]), floats(m["values"]))
			}
		}
	}
	if links, ok := top["links"].([]any); ok {
		for _, lv := range links {
			m, ok := lv.(map[string]any)
			if !ok {
				continue
			}
			addSeries("link "+str(m["name"]), floats(m["timeline"]))
		}
	}
	return out
}

func floats(v any) []float64 {
	arr, ok := v.([]any)
	if !ok {
		return nil
	}
	out := make([]float64, 0, len(arr))
	for _, x := range arr {
		f, ok := x.(float64)
		if !ok {
			return nil
		}
		out = append(out, f)
	}
	return out
}

// Handler serves the dashboard: /runs (grouped index with per-metric
// sparklines and verdict badges), /runs/{id} (one run's config, build,
// metrics vs baseline, artifacts, timelines), /runs/{id}/blob/{name}
// (raw artifact bytes). Mounted onto the live server by the CLIs.
func (s *Store) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/runs", func(w http.ResponseWriter, r *http.Request) {
		recs, err := s.Records()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		indexTmpl.Execute(w, indexPage{
			Title:  "spacesim run ledger",
			Groups: buildGroups(recs, false),
			Empty:  len(recs) == 0,
			Dir:    s.Dir,
		})
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
		s.serveDetail(w, rec)
	})
	return mux
}

func (s *Store) serveDetail(w http.ResponseWriter, rec *Record) {
	recs, _ := s.Records()
	var baseline []Record
	for _, r := range Comparable(recs, rec.ConfigDigest, rec.Build.HostKey()) {
		if r.ID != rec.ID && r.TimeUnixNS <= rec.TimeUnixNS {
			baseline = append(baseline, r)
		}
	}
	page := detailPage{
		Title:   "run " + rec.ID,
		ID:      rec.ID,
		Time:    rec.Time().Format(time.RFC3339),
		Tool:    rec.Config.Tool,
		Exp:     rec.Config.Experiment,
		Digest:  rec.ConfigDigest,
		HostKey: rec.Build.HostKey(),
		Build:   rec.Build.String(),
	}
	if cfg, err := json.MarshalIndent(rec.Config, "", "  "); err == nil {
		page.ConfigJSON = string(cfg)
	}
	for _, t := range GateAgainst(baseline, rec.Metrics, 10) {
		page.Metrics = append(page.Metrics, metricRow{
			Name:    t.Name,
			Latest:  fmtMetric(t.Latest),
			Verdict: t.Verdict,
			Label:   verdictLabel(t.Verdict),
			Detail:  t.Detail,
			Spark: svgSpark(t.Values,
				fmt.Sprintf("%s: %s over %d runs", t.Name, fmtMetric(t.Latest), len(t.Values))),
		})
	}
	names := make([]string, 0, len(rec.Artifacts))
	for name := range rec.Artifacts {
		names = append(names, name)
	}
	sort.Strings(names)
	const maxSeries = 16
	for _, name := range names {
		page.Artifacts = append(page.Artifacts, artifactRow{Name: name, Digest: rec.Artifacts[name]})
		if len(page.Series) < maxSeries {
			if data, err := s.ReadBlob(rec.Artifacts[name]); err == nil {
				for _, sv := range artifactSeries(name, data) {
					if len(page.Series) >= maxSeries {
						break
					}
					page.Series = append(page.Series, sv)
				}
			}
		}
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	detailTmpl.Execute(w, page)
}
