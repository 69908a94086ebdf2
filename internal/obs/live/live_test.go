package live

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spacesim/internal/obs"
)

func TestHandlerEndpoints(t *testing.T) {
	o := obs.New(false)
	o.Reg.Counter("mp.messages").Add(3)
	o.Reg.Gauge("pool.busy").Max(0.5)
	o.Reg.Histogram("mp.msg.latency_sec").Observe(0.01)
	o.Progress().SetTotal(4)
	o.Progress().StepDone(1, 0.5)
	o.Progress().State("running")

	srv := httptest.NewServer(Handler(func() *obs.Obs { return o }, nil))
	defer srv.Close()

	getStatus := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	get := func(path string) string {
		code, body := getStatus(path)
		if code != 200 {
			t.Fatalf("GET %s: status %d", path, code)
		}
		return body
	}

	prom := get("/metrics")
	for _, want := range []string{
		"# TYPE spacesim_mp_messages counter",
		"spacesim_mp_messages 3",
		"# TYPE spacesim_pool_busy gauge",
		"# TYPE spacesim_mp_msg_latency_sec summary",
		`spacesim_mp_msg_latency_sec{quantile="0.5"}`,
		"spacesim_mp_msg_latency_sec_count 1",
		`spacesim_progress_state{value="running"} 1`,
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, prom)
		}
	}

	var ms obs.MetricsSnapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &ms); err != nil {
		t.Fatalf("metrics.json: %v", err)
	}
	if ms.SchemaVersion != obs.MetricsSchemaVersion || ms.Counters["mp.messages"] != 3 {
		t.Fatalf("metrics.json: %+v", ms)
	}

	var p obs.ProgressSnapshot
	if err := json.Unmarshal([]byte(get("/progress.json")), &p); err != nil {
		t.Fatalf("progress.json: %v", err)
	}
	if p.StepFraction != 0.25 || p.State != "running" {
		t.Fatalf("progress.json: %+v", p)
	}

	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Fatalf("pprof index: %q", idx)
	}
	if idx := get("/"); !strings.Contains(idx, "/progress.json") || strings.Contains(idx, "/series.json") {
		t.Fatalf("index page:\n%s", idx)
	}
	if code, _ := getStatus("/series.json"); code != http.StatusNotFound {
		t.Fatalf("GET /series.json: status %d, want 404", code)
	}
}

func TestServeAndClose(t *testing.T) {
	o := obs.New(false)
	srv, err := Serve("127.0.0.1:0", func() *obs.Obs { return o }, nil)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/progress.json")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	var nilSrv *Server
	if nilSrv.Addr() != "" || nilSrv.Close() != nil {
		t.Fatal("nil server")
	}
}
