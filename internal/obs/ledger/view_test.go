package ledger

import (
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

var viewArtifact = []byte(`{"critical_path":{"total_sec":10},"makespan_sec":10,"schema_version":2}`)

// viewStore holds three comparable runs; it returns their IDs oldest first.
func viewStore(t *testing.T) (*Store, []string) {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, mk := range []float64{10, 10.2, 9.9} {
		id, err := s.Append(testRecord("analyze", map[string]float64{
			"makespan_sec":        mk,
			"parallel_efficiency": 0.9,
		}), map[string][]byte{"ANALYSIS.json": viewArtifact})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return s, ids
}

// get fetches path from srv and returns status, content type and body.
func get(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// The /runs page is WriteGroups over every record: one renderer for the
// page and for `ssbench trend`.
func TestRunsIndexPage(t *testing.T) {
	s, ids := viewStore(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	code, ct, body := get(t, srv, "/runs")
	if code != 200 || !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/runs: status %d, content type %q", code, ct)
	}
	recs, err := s.Records()
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	WriteGroups(&want, GroupRecords(recs), 10)
	if body != want.String() {
		t.Fatalf("/runs body differs from WriteGroups:\n%s\nwant:\n%s", body, want.String())
	}
	for _, line := range []string{
		fmt.Sprintf("3 runs (judged %s)", ids[2]),
		fmt.Sprintf("  runs %s %s %s\n", ids[2], ids[1], ids[0]),
	} {
		if !strings.Contains(body, line) {
			t.Errorf("/runs missing %q:\n%s", line, body)
		}
	}
}

// A group's header names the run its rows judge: the newest record with
// metrics, not a newer metric-less daemon result of the same config.
func TestGroupHeaderNamesJudgedRun(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, m := range []map[string]float64{{"makespan_sec": 10}, {"makespan_sec": 10.1}, nil} {
		id, err := s.Append(testRecord("run", m), nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	recs, err := s.Records()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	WriteGroups(&b, GroupRecords(recs), 10)
	if want := fmt.Sprintf(" 3 runs (judged %s)\n", ids[1]); !strings.Contains(b.String(), want) {
		t.Errorf("header does not name the judged run %s:\n%s", ids[1], b.String())
	}

	b.Reset()
	WriteGroups(&b, GroupRecords(recs[2:]), 10)
	if !strings.Contains(b.String(), " 1 runs (no run with metrics)\n") {
		t.Errorf("a group without metrics does not say so:\n%s", b.String())
	}
}

// /runs/{id} gates the record against the comparable runs before it and
// lists its artifacts' digests; /runs/{id}/blob/{name} serves their bytes.
func TestRunDetailAndBlobPages(t *testing.T) {
	s, ids := viewStore(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	code, ct, body := get(t, srv, "/runs/"+ids[2])
	if code != 200 || !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/runs/%s: status %d, content type %q", ids[2], code, ct)
	}
	rec, err := s.Find(ids[2])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"run " + ids[2],
		"config " + rec.ConfigDigest,
		`"experiment": "analyze"`,
		"metrics vs 2 earlier comparable runs",
		"ANALYSIS.json  " + rec.Artifacts["ANALYSIS.json"],
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/runs/{id} missing %q:\n%s", want, body)
		}
	}
	verdicts := metricVerdicts(body)
	for _, name := range []string{"makespan_sec", "parallel_efficiency"} {
		if verdicts[name] != VerdictOK {
			t.Errorf("%s verdict %q, want ok:\n%s", name, verdicts[name], body)
		}
	}

	// The first run has nothing earlier to be judged against.
	_, _, first := get(t, srv, "/runs/"+ids[0])
	if !strings.Contains(first, "metrics vs 0 earlier comparable runs") ||
		metricVerdicts(first)["makespan_sec"] != VerdictNoBaseline {
		t.Errorf("first run's page:\n%s", first)
	}

	code, ct, body = get(t, srv, "/runs/"+ids[2]+"/blob/ANALYSIS.json")
	if code != 200 || ct != "application/json" || body != string(viewArtifact) {
		t.Fatalf("blob: status %d, content type %q, body %q", code, ct, body)
	}
}

// metricVerdicts reads the verdict column of the WriteTrends rows in body.
func metricVerdicts(body string) map[string]Verdict {
	out := map[string]Verdict{}
	for _, line := range strings.Split(body, "\n") {
		f := strings.Fields(line)
		if len(f) >= 7 && f[2] == "latest" && f[4] == "median" {
			out[f[0]] = Verdict(f[6])
		}
	}
	return out
}

func TestRunsNotFound(t *testing.T) {
	s, ids := viewStore(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// A record whose ID shares the newest run's first six characters makes
	// that prefix ambiguous.
	twin := fmt.Sprintf(`{"schema_version":1,"id":"%s","time_unix_ns":1,"config_digest":"d1","config":{"tool":"ssbench"},"build":{}}`+"\n",
		ids[2][:6]+"zzzzzz")
	f, err := os.OpenFile(s.IndexPath(), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(twin); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for _, path := range []string{
		"/runs/nope",
		"/runs/" + ids[2][:6],
		"/runs/" + ids[2] + "/blob/MISSING.json",
	} {
		if code, _, _ := get(t, srv, path); code != 404 {
			t.Errorf("%s: status %d, want 404", path, code)
		}
	}
	if code, _, _ := get(t, srv, "/runs/"+ids[2]); code != 200 {
		t.Errorf("full id beside its twin: status %d, want 200", code)
	}
}

func TestRunsPageEmptyLedger(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if code, _, body := get(t, srv, "/runs"); code != 200 || body != "no runs recorded in "+s.Dir+"\n" {
		t.Fatalf("empty ledger: status %d, body %q", code, body)
	}
}
