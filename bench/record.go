package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"spacesim/internal/obs/ledger"
)

// hostInfo is the fingerprint a record carries: figures from two hosts
// are not comparable, and the record says which one it came from.
type hostInfo struct {
	// Provenance carries cpu count, pinned GOMAXPROCS, Go version, OS and
	// architecture, hostname and VCS revision, as every other artifact of
	// the repository does.
	ledger.Provenance
	CPUModel string `json:"cpu_model"`
}

func fingerprint() hostInfo {
	h := hostInfo{Provenance: ledger.Prov(), CPUModel: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return h
}

// recordMetric is one metric in a record: the reported value (the median
// of Values when the run was repeated) with its declaration.
type recordMetric struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound,omitempty"`
	Values []float64 `json:"values,omitempty"`
}

type workloadParams struct {
	Scenario   string  `json:"scenario"`
	N          int     `json:"n"`
	Procs      int     `json:"procs"`
	Workers    int     `json:"workers"`
	Steps      int     `json:"steps"`
	TraceSteps int     `json:"trace_steps"`
	MaxLeaf    int     `json:"max_leaf"`
	Theta      float64 `json:"theta,omitempty"`
	Eps        float64 `json:"eps,omitempty"`
	DT         float64 `json:"dt,omitempty"`
	Engine     string  `json:"engine,omitempty"`
}

type workloadRecord struct {
	Name         string         `json:"name"`
	Why          string         `json:"why"`
	Params       workloadParams `json:"params"`
	OpsAttempted int            `json:"ops_attempted"`
	OpsFailed    int            `json:"ops_failed"`
	Failures     []string       `json:"failures,omitempty"`
	// HostSlowdown is the host's slowdown against nominal around each
	// end-to-end run; it is already divided out of their host times.
	HostSlowdown []float64               `json:"host_slowdown"`
	EndToEnd     map[string]recordMetric `json:"end_to_end"`
	PerLayer     map[string]recordMetric `json:"per_layer"`
	Samples      map[string]summary      `json:"samples,omitempty"`
	SpanFile     string                  `json:"span_file"`
}

// record is the output of a full run, the input of -compare.
type record struct {
	Schema    int              `json:"schema"`
	Host      hostInfo         `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Runs      int              `json:"runs"`
	WallS     float64          `json:"wall_s"`
	Workloads []workloadRecord `json:"workloads"`
}

const recordSchema = 1

func (w workload) params(steps, trSteps int) workloadParams {
	p := workloadParams{
		Scenario: w.Scenario, N: w.N, Procs: w.Procs, Workers: w.Workers,
		Steps: steps, TraceSteps: trSteps, MaxLeaf: w.MaxLeaf,
	}
	if w.isSPH() {
		p.Scenario = "rotating-collapse(omega=0.3, pressure_deficit=0.85)"
	} else {
		p.Theta, p.Eps, p.DT, p.Engine = nbTheta, nbEps, nbDT, "event, 1 engine worker"
	}
	return p
}

// allMain runs every workload: its end-to-end pass (c.runs fresh children)
// and its traced pass, prints both sets of metrics, and writes the record.
func allMain(c cli) error {
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	if c.seconds <= 0 {
		c.seconds = sp.RunSeconds
	}
	if c.runs < 1 {
		c.runs = 1
	}
	rec := record{Schema: recordSchema, Host: fingerprint(), Seed: c.seed, Seconds: c.seconds, Runs: c.runs}
	fmt.Printf("host: %s, %s\nseed %d, %d s per run\n", rec.Host.Provenance, rec.Host.CPUModel, c.seed, c.seconds)
	start := time.Now()
	failed := 0
	for i, decl := range sp.Workloads {
		w, _ := findWorkload(decl.Name)
		wr := workloadRecord{
			Name: w.Name, Why: decl.Why, Params: w.params(c.stepsOf(w, sp, false), c.stepsOf(w, sp, true)),
			EndToEnd: map[string]recordMetric{}, PerLayer: map[string]recordMetric{}, Samples: map[string]summary{},
			SpanFile: c.spanPath(w),
		}
		fmt.Printf("\n[%d/%d] %s — %s\n", i+1, len(sp.Workloads), w.Name, decl.Why)

		values := map[string][]float64{}
		var e2e *runResult
		for r := 0; r < c.runs; r++ {
			if e2e, err = endToEnd(sp, w, c); err != nil {
				return err
			}
			wr.absorb(e2e)
			wr.HostSlowdown = append(wr.HostSlowdown, e2e.slowdown)
			for name, v := range e2e.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		for _, d := range sp.EndToEnd {
			if vs := values[d.Name]; len(vs) > 0 {
				rm := recordMetric{Value: median(vs), Unit: d.Unit, Better: d.Better, Bound: d.Bound}
				if len(vs) > 1 {
					rm.Values = vs
				}
				wr.EndToEnd[d.Name] = rm
				e2e.Metrics[d.Name] = metricValue{Value: rm.Value, Unit: d.Unit}
			}
		}
		fmt.Println(" end to end:")
		printMetrics(sp.EndToEnd, e2e)

		layers, err := perLayer(sp, w, c)
		if err != nil {
			return err
		}
		wr.absorb(layers)
		for _, d := range sp.PerLayer {
			if v, ok := layers.Metrics[d.Name]; ok {
				wr.PerLayer[d.Name] = recordMetric{Value: v.Value, Unit: d.Unit, Better: d.Better}
			}
		}
		fmt.Println(" per layer (traced pass):")
		printMetrics(sp.PerLayer, layers)
		failed += wr.OpsFailed
		rec.Workloads = append(rec.Workloads, wr)
	}
	rec.WallS = time.Since(start).Seconds()
	fmt.Printf("\ntotal wall %.1f s, ops_failed %d\n", rec.WallS, failed)

	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	out := filepath.Join(c.dir, "record.json")
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("record: %s   spans: %s\n", out, filepath.Join(c.dir, "spans-<workload>.json"))
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

func (wr *workloadRecord) absorb(r *runResult) {
	wr.OpsAttempted += r.Attempted
	wr.OpsFailed += r.Failed
	wr.Failures = append(wr.Failures, r.failures...)
	for k, v := range r.samples {
		wr.Samples[k] = v
	}
}
