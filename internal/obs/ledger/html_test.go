package ledger

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

func dashboardStore(t *testing.T) (*Store, string) {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	art := []byte(`{"critical_path":{"total_sec":10},"makespan_sec":10,"schema_version":2,
		"live":{"samples":3,"virtual_sec":[0,1,2],
		        "series":[{"name":"progress.fraction","values":[0.1,0.5,1.0]}]}}`)
	var lastID string
	for _, mk := range []float64{10, 10.2, 9.9} {
		id, err := s.Append(testRecord("analyze", map[string]float64{
			"makespan_sec":        mk,
			"parallel_efficiency": 0.9,
		}), map[string][]byte{"ANALYSIS.json": art})
		if err != nil {
			t.Fatal(err)
		}
		lastID = id
	}
	return s, lastID
}

func TestRunsIndexPage(t *testing.T) {
	s, _ := dashboardStore(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/runs status %d", resp.StatusCode)
	}
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		"<svg",                       // per-metric sparklines
		"makespan_sec",               // metric rows
		"badge",                      // verdict badges
		"config",                     // digest surfaced
		"prefers-color-scheme: dark", // dark mode present
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/runs missing %q", want)
		}
	}
}

func TestRunDetailAndBlobPages(t *testing.T) {
	s, id := dashboardStore(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/runs/%s status %d", id, resp.StatusCode)
	}
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		id,
		"ANALYSIS.json",
		"progress.fraction", // live series sparkline on the detail page
		"metrics vs group baseline",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("detail page missing %q", want)
		}
	}

	blob, err := srv.Client().Get(srv.URL + "/runs/" + id + "/blob/ANALYSIS.json")
	if err != nil {
		t.Fatal(err)
	}
	defer blob.Body.Close()
	if blob.StatusCode != 200 {
		t.Fatalf("blob status %d", blob.StatusCode)
	}
	if ct := blob.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("blob content-type %q", ct)
	}

	if resp, err := srv.Client().Get(srv.URL + "/runs/nope"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Fatalf("unknown run status %d, want 404", resp.StatusCode)
		}
	}
}

func TestRenderIndexHTMLStatic(t *testing.T) {
	s, id := dashboardStore(t)
	var sb strings.Builder
	if err := s.RenderIndexHTML(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	if !strings.Contains(body, "<svg") || !strings.Contains(body, "makespan_sec") {
		t.Fatal("static report missing sparklines or metrics")
	}
	// The static page must not link back into the server.
	if strings.Contains(body, `href="/runs/`+id) {
		t.Fatal("static report contains server-relative run links")
	}
}

func TestRenderIndexHTMLEmpty(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := s.RenderIndexHTML(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "No runs recorded yet") {
		t.Fatal("empty-ledger report missing empty state")
	}
	// The hint names a command that exists and writes a run record.
	if !strings.Contains(sb.String(), "spacesim -ledger "+s.Dir+" -report") {
		t.Fatal("empty-ledger report does not point to spacesim -report")
	}
}
