package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"spacesim/internal/obs/ledger"
)

// Every measured run is one fresh child process: heap pacing and pooled
// list buffers survive between in-process repetitions, so a second
// repetition measures a different program (see README.md, "Run protocol").
// The parent only waits, so nothing competes with the child for the cores.

// childEnv marks a re-exec'd child; the test binary's TestMain routes such
// a process into main().
const childEnv = "SPACESIM_BENCH_CHILD"

// Child roles.
const (
	rolePlain     = "plain"      // the program as users run it: core.Run / sph Step()
	roleTraced    = "traced"     // bench's own step driver with spans
	roleTracedObs = "traced-obs" // the traced driver with obs tracing + event retention on
)

// runParams is what a child needs to reproduce a run.
type runParams struct {
	Workload string
	Seed     int64
	Steps    int
	N        int    // 0 = the workload's own size
	SpanFile string // traced roles: where to write the spans ("" = nowhere)
}

// childOut is the one JSON line a child prints last on standard output.
type childOut struct {
	// Metrics holds every figure the role can measure, by declared name.
	Metrics map[string]float64 `json:"metrics"`
	// Samples carries the multi-sample timings behind some metrics.
	Samples map[string]summary `json:"samples,omitempty"`
	// WallS is the host time of the timed section (the whole core.Run or
	// step loop), the figure overheads are computed from.
	WallS     float64  `json:"wall_s"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

func (o *childOut) check(ok bool, format string, args ...any) {
	o.Attempted++
	if !ok {
		o.Failed++
		o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
	}
}

// spawn re-executes this binary as a child in the given role, waits for it
// to end, and decodes its last output line. Standard error passes through.
func spawn(role string, p runParams) (*childOut, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	args := []string{
		"-role", role, "-workload", p.Workload,
		"-seed", strconv.FormatInt(p.Seed, 10),
		"-steps", strconv.Itoa(p.Steps), "-n", strconv.Itoa(p.N),
		"-spans", p.SpanFile,
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child of %s: %w", role, p.Workload, err)
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var out childOut
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		return nil, fmt.Errorf("%s child of %s: decode result %q: %w", role, p.Workload, last, err)
	}
	return &out, nil
}

// procSnap is a point-in-time reading of this process's resource use.
type procSnap struct {
	cpuS       float64 // rusage user+sys
	allocBytes uint64
	gcCycles   uint32
}

func snapProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSnap{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
		s.cpuS = tv(ru.Utime) + tv(ru.Stime)
	}
	return s
}

// processMetrics fills the bench.* process-level figures for a timed
// section bracketed by two snapshots.
func processMetrics(m map[string]float64, before, after procSnap, evals int) {
	e := float64(evals)
	m["bench.peak_rss_mb"] = float64(ledger.PeakRSSBytes()) / (1 << 20)
	m["bench.alloc_mb_per_step"] = float64(after.allocBytes-before.allocBytes) / (1 << 20) / e
	m["bench.gc_cycles_per_step"] = float64(after.gcCycles-before.gcCycles) / e
	m["bench.cpu_s_per_step"] = (after.cpuS - before.cpuS) / e
}
