package ledger

import (
	"strings"
	"testing"

	"spacesim/internal/obs"
)

const benchJSON = `{
  "schema_version": 6,
  "n": 32768,
  "results": [
    {"engine": "per-body", "workers": 1, "ns_per_interaction": 42.0},
    {"engine": "grouped", "workers": 1, "ns_per_interaction": 15.5},
    {"engine": "grouped", "workers": 8, "ns_per_interaction": 2.1}
  ],
  "speedup_grouped_wn_vs_per_body": 6.2,
  "distributed": {"gflops": 3.5, "max_imbalance": 1.08},
  "analysis": {"makespan_sec": 12.5, "parallel_efficiency": 0.91, "msg_latency_p99_sec": 0.002},
  "treebuild": {"seed_seconds": 0.09, "entries": [
    {"workers": 1, "speedup_vs_seed": 1.1},
    {"workers": 4, "speedup_vs_seed": 2.6}
  ]},
  "scale": {"max_event_ranks": 294, "entries": [
    {"workload": "step", "engine": "event", "ranks": 294, "ranks_per_sec": 1400}
  ]}
}`

const analysisJSON = `{
  "schema_version": 2,
  "machine": {"name": "Space Simulator"},
  "critical_path": {"total_sec": 12.5},
  "makespan_sec": 12.5,
  "parallel_efficiency": 0.91,
  "idle_fraction": 0.04,
  "histograms": {"mp.msg.latency_sec": {"count": 10, "p99": 0.0021}},
  "faults": {"checkpoint_sec": 0.4, "lost_virtual_sec": 1.2}
}`

func TestSniffKind(t *testing.T) {
	cases := []struct {
		data []byte
		want string
	}{
		{[]byte(benchJSON), KindUnknown},
		{[]byte(analysisJSON), KindAnalysis},
		{[]byte(`{"baseline_virtual_sec": 3, "entries": []}`), KindFaultsweep},
		{[]byte(`{"treebuild": {}}`), KindUnknown},
		{[]byte(`{"hello": 1}`), KindUnknown},
		{[]byte(`not json`), KindUnknown},
	}
	for i, c := range cases {
		if got := SniffKind(c.data); got != c.want {
			t.Errorf("case %d: SniffKind = %s, want %s", i, got, c.want)
		}
	}
}

// The bench record and its writers are gone: an artifact of that kind still
// sits in old ledgers, but nothing new is extracted from it (the metrics its
// records stored stay in those records).
func TestExtractMetricsBench(t *testing.T) {
	if m := ExtractMetrics([]byte(benchJSON)); len(m) != 0 {
		t.Fatalf("retired bench record extracted %v, want nothing", m)
	}
}

func TestExtractMetricsAnalysis(t *testing.T) {
	m := ExtractMetrics([]byte(analysisJSON))
	want := map[string]float64{
		"makespan_sec":            12.5,
		"parallel_efficiency":     0.91,
		"idle_fraction":           0.04,
		"msg_latency_p99_sec":     0.0021,
		"checkpoint_overhead_sec": 0.4,
		"lost_virtual_sec":        1.2,
	}
	for name, v := range want {
		if m[name] != v {
			t.Errorf("%s = %v, want %v", name, m[name], v)
		}
	}
}

func TestExtractMetricsGarbage(t *testing.T) {
	if m := ExtractMetrics([]byte("{broken")); len(m) != 0 {
		t.Fatalf("garbage extracted %v", m)
	}
}

func TestExtractProvenance(t *testing.T) {
	data := []byte(`{"provenance": {"go_version": "go1.24.0", "hostname": "h1",
		"goos": "linux", "goarch": "amd64", "num_cpu": 8, "gomaxprocs": 8,
		"config_digest": "abc"}}`)
	p, ok := ExtractProvenance(data)
	if !ok || p.Hostname != "h1" || p.ConfigDigest != "abc" {
		t.Fatalf("ExtractProvenance = %+v, %v", p, ok)
	}
	if _, ok := ExtractProvenance([]byte(`{"makespan_sec": 1}`)); ok {
		t.Fatal("provenance found where none was stamped")
	}
}

func TestProvHostKeyAndStamp(t *testing.T) {
	p := Prov()
	if p.GoVersion == "" || p.GOMAXPROCS == 0 {
		t.Fatalf("Prov incomplete: %+v", p)
	}
	if !strings.Contains(p.HostKey(), p.GOOS) {
		t.Fatalf("HostKey %q missing goos", p.HostKey())
	}
	// The kernel ISA is recorded and printed, but an older record without
	// it must still key to the same host.
	if p.KernelISA == "" || !strings.Contains(p.String(), "kernels "+p.KernelISA) {
		t.Fatalf("kernel ISA %q not in %q", p.KernelISA, p.String())
	}
	old := p
	old.KernelISA = ""
	if !SameHost(old, p) {
		t.Fatalf("HostKey depends on the kernel ISA: %q vs %q", old.HostKey(), p.HostKey())
	}
	reg := obs.NewRegistry()
	p.Stamp(reg)
	texts := reg.TextSnapshots()
	v, ok := texts["build.info"]
	if !ok || !strings.Contains(v, "go_version=") || !strings.Contains(v, "gomaxprocs=") {
		t.Fatalf("build.info text = %q, %v", v, ok)
	}
	// Nil registry must be a no-op, matching the rest of obs.
	p.Stamp(nil)
}
