package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
)

// metricDecl is one metric as BENCHMARK.json declares it. Bound is set on
// end-to-end metrics only: the share of the parent's median by which the
// metric may worsen before a change counts as a regression.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec mirrors BENCHMARK.json, the single place metric and workload names,
// units, directions and bounds are fixed.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadSpec reads BENCHMARK.json from the working directory (the checkout
// root under `go run ./bench`) or its parent (the package directory under
// `go test`), and checks it against the workload table in both directions.
func loadSpec() (*spec, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json not found in . or ..: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	seen := map[string]bool{}
	check := func(kind, name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("BENCHMARK.json: %s name %q is not [A-Za-z0-9_.-]+", kind, name)
		}
		if seen[name] {
			return fmt.Errorf("BENCHMARK.json: name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	declared := map[string]bool{}
	for _, w := range sp.Workloads {
		if err := check("workload", w.Name); err != nil {
			return nil, err
		}
		declared[w.Name] = true
		if _, ok := findWorkload(w.Name); !ok {
			return nil, fmt.Errorf("BENCHMARK.json declares workload %q the benchmark does not have", w.Name)
		}
	}
	for _, w := range workloads {
		if !declared[w.Name] {
			return nil, fmt.Errorf("workload %q is not declared in BENCHMARK.json", w.Name)
		}
	}
	for _, m := range append(append([]metricDecl(nil), sp.EndToEnd...), sp.PerLayer...) {
		if err := check("metric", m.Name); err != nil {
			return nil, err
		}
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("BENCHMARK.json: metric %q: better is %q", m.Name, m.Better)
		}
	}
	return &sp, nil
}

// metricValue is one reported metric in the shape the contract's last
// output line uses.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// selectMetrics picks the metrics decls declares out of what a run
// measured and fails on any mismatch: a declared metric that was not
// measured, a non-finite value, or a measured metric that neither decls
// nor other (the other pass's list) declares.
func selectMetrics(decls []metricDecl, measured map[string]float64, other []metricDecl) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(decls))
	known := map[string]bool{}
	for _, d := range decls {
		known[d.Name] = true
		v, ok := measured[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q is declared in BENCHMARK.json but was not measured", d.Name)
		}
		if !finite(v) {
			return nil, fmt.Errorf("metric %q is not finite (%v)", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for _, d := range other {
		known[d.Name] = true
	}
	var extra []string
	for name := range measured {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("measured but not declared in BENCHMARK.json: %v", extra)
	}
	return out, nil
}

// workload is one fixed-size problem. Steps is the step count at
// refSeconds; -seconds scales it linearly so a given (seed, seconds) pair
// always runs the same work and every virtual-time figure repeats exactly.
type workload struct {
	Name     string
	Scenario string // core.MakeICs scenario; "" for the SPH collapse
	N        int
	Procs    int
	Workers  int // core.Options.Workers / sph.Config.Workers
	Steps    int
	MaxLeaf  int // tree bucket size the workload's walker uses
}

// refSeconds is the run length the step counts below are sized for
// (BENCHMARK.json run_seconds); traceSteps is the length of the traced
// pass and of its untraced reference.
const (
	refSeconds = 12
	traceSteps = 4
)

// Fixed treecode options shared by the three N-body workloads.
const (
	nbTheta = 0.7
	nbEps   = 0.01
	nbDT    = 0.005
)

var workloads = []workload{
	{Name: "plummer-serial", Scenario: "plummer", N: 32768, Procs: 1, Workers: 1, Steps: 14, MaxLeaf: 16},
	{Name: "plummer-dist8", Scenario: "plummer", N: 32768, Procs: 8, Workers: 2, Steps: 8, MaxLeaf: 16},
	{Name: "coldsphere-dist64", Scenario: "coldsphere", N: 32768, Procs: 64, Workers: 2, Steps: 14, MaxLeaf: 16},
	{Name: "sph-collapse", N: 8000, Procs: 1, Workers: 2, Steps: 12, MaxLeaf: 8},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) isSPH() bool { return w.Scenario == "" }

// size is the body count of a run: the workload's own unless overridden.
func (w workload) size(p runParams) int {
	if p.N > 0 {
		return p.N
	}
	return w.N
}

// evals is the number of force evaluations a run of the given step count
// performs — the divisor of every "per step" figure: the N-body driver
// evaluates once before the first step, the SPH integrator does not.
func (w workload) evals(steps int) int {
	if w.isSPH() {
		return steps
	}
	return steps + 1
}

// stepsFor scales the workload's step count to a run length.
func (w workload) stepsFor(seconds int) int {
	s := int(math.Round(float64(w.Steps) * float64(seconds) / refSeconds))
	if s < 1 {
		s = 1
	}
	return s
}
