// Command bench is the repository's end-to-end and per-layer benchmark
// (BENCHMARK.json, bench/README.md). It runs four fixed-size workloads —
// three N-body runs of the hashed oct-tree code on the virtual Space
// Simulator and one SPH core collapse — through the packages' public entry
// points, each in a fresh child process, checks their outputs, and prints
// every declared metric by name with its unit.
//
//	go run ./bench                          all workloads, both passes, a record file
//	go run ./bench -workload plummer-dist8  one workload, end-to-end metrics
//	go run ./bench -workload sph-collapse -trace 1   its per-layer metrics
//	go run ./bench -compare A.json B.json   two records against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// pinnedProcs is the GOMAXPROCS every process of the benchmark runs with:
// load is sized for a two-core host and must not change with the machine.
const pinnedProcs = 2

// defaultDir receives everything the benchmark writes: span files, the
// record and probe scratch. It is relative to the working directory, the
// checkout.
const defaultDir = ".bench_out"

type cli struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	role     string
	steps    int
	n        int
	spans    string
	compare  bool
	dir      string
	runs     int
}

func (c cli) spanPath(w workload) string { return filepath.Join(c.dir, "spans-"+w.Name+".json") }

func main() {
	var c cli
	flag.StringVar(&c.workload, "workload", "", "run one workload (default: all, both passes)")
	flag.Int64Var(&c.seed, "seed", 1, "seed of the initial-condition generator")
	flag.IntVar(&c.seconds, "seconds", 0, "run length the step counts are scaled to (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&c.trace, "trace", 0, "0: end-to-end metrics; 1: traced pass, per-layer metrics")
	flag.BoolVar(&c.compare, "compare", false, "compare two record files: -compare A.json B.json")
	flag.StringVar(&c.dir, "dir", defaultDir, "directory for the span files, the record of a full run and scratch files")
	flag.IntVar(&c.runs, "runs", 1, "end-to-end runs per workload in a full run (their median is reported)")
	flag.IntVar(&c.steps, "steps", 0, "override the step count of both passes (miniature runs)")
	flag.IntVar(&c.n, "n", 0, "override the body count (miniature runs)")
	flag.StringVar(&c.role, "role", "", "internal: run as a child in this role")
	flag.StringVar(&c.spans, "spans", "", "internal: span file of a traced child")
	flag.Parse()
	runtime.GOMAXPROCS(pinnedProcs)

	var err error
	switch {
	case c.compare:
		err = compareMain(flag.Args())
	case c.role != "":
		err = childMain(c)
	case c.workload != "":
		err = oneMain(c)
	default:
		err = allMain(c)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// childMain runs one role of one workload in this process and prints its
// result as the last line.
func childMain(c cli) error {
	w, ok := findWorkload(c.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", c.workload)
	}
	p := runParams{Workload: w.Name, Seed: c.seed, Steps: c.steps, N: c.n, SpanFile: c.spans}
	var out *childOut
	var err error
	switch {
	case c.role == rolePlain && w.isSPH():
		out, err = plainSPH(w, p)
	case c.role == rolePlain:
		out, err = plainNBody(w, p)
	case c.role == roleTraced && w.isSPH():
		out, err = tracedSPH(w, p)
	case c.role == roleTraced:
		out, err = tracedNBodyChild(w, p, false)
	case c.role == roleTracedObs && !w.isSPH():
		out, err = tracedNBodyChild(w, p, true)
	default:
		err = fmt.Errorf("workload %s has no role %q", w.Name, c.role)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// runResult is one pass of one workload as the contract's last line and
// the record report it.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	samples   map[string]summary
	failures  []string
	// slowdown is the host's measured slowdown against nominal around an
	// end-to-end run, already divided out of its host times; 0 elsewhere.
	slowdown float64
}

func (r *runResult) absorb(o *childOut) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.failures = append(r.failures, o.Failures...)
	for k, v := range o.Samples {
		r.samples[k] = v
	}
}

// stepsOf resolves the step count of a pass: an explicit -steps, else the
// workload's count scaled to -seconds (end to end) or traceSteps (traced).
func (c cli) stepsOf(w workload, sp *spec, traced bool) int {
	if c.steps > 0 {
		return c.steps
	}
	if traced {
		return traceSteps
	}
	seconds := c.seconds
	if seconds <= 0 {
		seconds = sp.RunSeconds
	}
	return w.stepsFor(seconds)
}

// endToEnd runs the workload once as users run it, in a fresh child, and
// reports the declared end-to-end metrics.
func endToEnd(sp *spec, w workload, c cli) (*runResult, error) {
	p := runParams{Workload: w.Name, Seed: c.seed, Steps: c.stepsOf(w, sp, false), N: c.n}
	cal := newCalibrator()
	cal.run()
	o, err := spawn(rolePlain, p)
	if err != nil {
		return nil, err
	}
	cal.run()
	res := &runResult{samples: map[string]summary{}, slowdown: cal.slowdown()}
	res.absorb(o)
	// Host times are reported at reference host speed (calibrate.go).
	for _, name := range []string{"setup_s", "host_s_per_step"} {
		if v, ok := o.Metrics[name]; ok {
			o.Metrics[name] = v / res.slowdown
		}
	}
	return res.finish(sp.EndToEnd, o.Metrics, sp.PerLayer)
}

// finish selects the declared metrics and sets Correct. A failed run has
// stopped early, so it may lack metrics; a correct one may not.
func (r *runResult) finish(decls []metricDecl, measured map[string]float64, other []metricDecl) (*runResult, error) {
	var err error
	r.Correct = r.Failed == 0
	if r.Metrics, err = selectMetrics(decls, measured, other); err != nil {
		if r.Correct {
			return nil, err
		}
		r.Metrics = map[string]metricValue{}
	}
	return r, nil
}

// notApplicable reports whether a per-layer metric belongs to a layer the
// workload never enters; such a metric reads 0.
func notApplicable(w workload, name string) bool {
	if !w.isSPH() {
		return strings.HasPrefix(name, "sph.")
	}
	switch name {
	case "virtual_s_per_step", "mflops_per_proc", "virtual_parallel_eff":
		return true
	}
	for _, prefix := range []string{"core.", "mp.", "netsim.", "obs."} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// perLayer is the traced pass: an untraced reference run and the traced
// driver, each in a fresh child and each of the same few steps, the traced
// driver once more under obs tracing, and the layer probes. The per-layer
// metrics come from the three together.
func perLayer(sp *spec, w workload, c cli) (*runResult, error) {
	steps := c.stepsOf(w, sp, true)
	p := runParams{Workload: w.Name, Seed: c.seed, Steps: steps, N: c.n}
	res := &runResult{samples: map[string]summary{}}
	m := map[string]float64{}
	merge := func(o *childOut) {
		res.absorb(o)
		for k, v := range o.Metrics {
			m[k] = v
		}
	}

	cal := newCalibrator()
	cal.run()
	plain, err := spawn(rolePlain, p)
	if err != nil {
		return nil, err
	}
	merge(plain)
	p.SpanFile = c.spanPath(w)
	traced, err := spawn(roleTraced, p)
	if err != nil {
		return nil, err
	}
	merge(traced)
	m["bench.trace_overhead_frac"] = ratio(traced.WallS, plain.WallS) - 1
	if !w.isSPH() {
		p.SpanFile = ""
		withObs, err := spawn(roleTracedObs, p)
		if err != nil {
			return nil, err
		}
		res.absorb(withObs)
		m["obs.events_overhead_frac"] = ratio(withObs.WallS, traced.WallS) - 1
	}
	// Per-layer times are raw wall times; the slowdown says what kind of
	// minute the host was having while they were taken.
	cal.run()
	m["bench.host_slowdown"] = cal.slowdown()
	pm, ps, err := runProbes(w, p, int(m["core.list_bodies_p50"]), int(m["core.list_cells_p50"]), c.dir)
	if err != nil {
		return nil, err
	}
	for k, v := range pm {
		m[k] = v
	}
	for k, v := range ps {
		res.samples[k] = v
	}
	for _, d := range sp.PerLayer {
		if _, ok := m[d.Name]; !ok && notApplicable(w, d.Name) {
			m[d.Name] = 0
		}
	}
	return res.finish(sp.PerLayer, m, sp.EndToEnd)
}

// printMetrics lists the metrics in declared order, one per line.
func printMetrics(decls []metricDecl, res *runResult) {
	for _, d := range decls {
		v, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-40s %14.6g %s", d.Name, v.Value, v.Unit)
		if s, ok := res.samples[d.Name]; ok && s.N > 1 {
			line += fmt.Sprintf("   (median of %d", s.N)
			if s.TailPct > 0 {
				line += fmt.Sprintf(", p%g %.6g", s.TailPct, s.Tail)
			}
			line += ")"
		}
		fmt.Println(line)
	}
	if res.slowdown > 0 {
		fmt.Printf("  (host times at reference speed; the host ran %.3f times slower than nominal)\n", res.slowdown)
	}
	for _, f := range res.failures {
		fmt.Println("  FAILED:", f)
	}
	fmt.Printf("  %-40s %14d\n  %-40s %14d\n", "ops_attempted", res.Attempted, "ops_failed", res.Failed)
}

// oneMain is the contract entry point: one workload, one pass, the result
// as the last line of standard output.
func oneMain(c cli) error {
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	w, ok := findWorkload(c.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", c.workload)
	}
	var res *runResult
	decls := sp.EndToEnd
	switch c.trace {
	case 0:
		res, err = endToEnd(sp, w, c)
	case 1:
		res, err = perLayer(sp, w, c)
		decls = sp.PerLayer
	default:
		err = fmt.Errorf("-trace is 0 or 1, not %d", c.trace)
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s (seed %d, trace %d)\n", w.Name, c.seed, c.trace)
	printMetrics(decls, res)
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", w.Name, res.Failed, res.Attempted)
	}
	return nil
}
