package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spacesim/internal/gravity"
	"spacesim/internal/obs/ledger"
	"spacesim/internal/vec"
)

// benchKernelsSchemaVersion is the BENCH_treecode.json schema once the
// kernels block is merged in (see the history on groupReport).
const benchKernelsSchemaVersion = 8

// kernelEntry is one timed kernel configuration of the microbenchmark
// sweep.
type kernelEntry struct {
	// Kernel is "body" (monopole point sources) or "cell" (monopole +
	// quadrupole multipoles).
	Kernel string `json:"kernel"`
	// Variant is "libm" (hardware sqrt + divide) or "karp" (the table-driven
	// reciprocal sqrt of Table 5; body kernel only).
	Variant string `json:"variant"`
	// Precision is always "float64", the only arithmetic since PR 20; the
	// member stays, in the record and in diffKernels' key, so that a v8
	// record written before then still pairs like for like (its float32
	// entries find no partner).
	Precision string `json:"precision"`
	// Length is the interaction-list length (sources or cells per sink).
	Length int `json:"length"`
	// Sinks is the bucket size the list is applied to.
	Sinks            int     `json:"sinks"`
	NsPerInteraction float64 `json:"ns_per_interaction"`
	InterPerSec      float64 `json:"interactions_per_sec"`
}

// kernelsReport is the `kernels` block of BENCH_treecode.json
// (schema_version 8): the kernel-variant microbenchmark sweep, the
// libm-vs-Karp comparison the paper's Table 5 motivates applied to this
// code's batched kernels, and the bit-identity verdict of the production
// path against the seed evaluation. (v8 records written before PR 20 also
// carry rms_acc_err_float32 and float32_err_budget; they are ignored.)
type kernelsReport struct {
	Sinks      int   `json:"sinks"`
	Lengths    []int `json:"lengths"`
	GOMAXPROCS int   `json:"gomaxprocs"`
	// Entries is the sweep over list length of the kernels that exist: body
	// libm, body karp, cell libm.
	Entries []kernelEntry `json:"entries"`
	// KarpSpeedupBody is libm ns / karp ns for the body kernel at
	// the longest list length (>1 means Karp wins, the paper's claim for
	// hardware with slow sqrt/divide).
	KarpSpeedupBody float64 `json:"karp_speedup_body"`
	// DefaultBitIdentical reports that the kernels this process
	// dispatches to (gravity.KernelISA) reproduced the seed evaluation
	// (scalar AccelAt cells + the Go body loops) bit for bit on randomized
	// lists, for both body-kernel variants. The run aborts when they do
	// not, so a written record always says true.
	DefaultBitIdentical bool `json:"default_bit_identical"`
}

// kernelList is one randomized interaction list in every layout the sweep
// needs.
type kernelList struct {
	cells          gravity.MultipoleSoA
	src            gravity.SoA
	sx, sy, sz     []float64
	ax, ay, az, pp []float64
}

// makeKernelList builds a list of nc cells and nb bodies applied to ns
// sinks, shaped like a real bucket list: sinks clustered in a unit box,
// sources nearby, cells well separated (so the multipole series is in its
// domain of validity and the Karp table sees realistic exponents).
func makeKernelList(rng *rand.Rand, nc, nb, ns int) *kernelList {
	l := &kernelList{}
	for c := 0; c < nc; c++ {
		np := 8
		pos := make([]vec.V3, np)
		mass := make([]float64, np)
		center := vec.V3{rng.NormFloat64() * 20, rng.NormFloat64() * 20, rng.NormFloat64() * 20}
		for i := range pos {
			pos[i] = center.Add(vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
			mass[i] = rng.Float64() + 0.1
		}
		mp := gravity.FromBodies(pos, mass)
		l.cells.Push(&mp)
	}
	for i := 0; i < nb; i++ {
		p := vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		l.src.Push(p, rng.Float64()+0.1)
	}
	for j := 0; j < ns; j++ {
		l.sx = append(l.sx, rng.NormFloat64())
		l.sy = append(l.sy, rng.NormFloat64())
		l.sz = append(l.sz, rng.NormFloat64())
	}
	l.ax = make([]float64, ns)
	l.ay = make([]float64, ns)
	l.az = make([]float64, ns)
	l.pp = make([]float64, ns)
	return l
}

func (l *kernelList) zero() {
	for j := range l.ax {
		l.ax[j], l.ay[j], l.az[j], l.pp[j] = 0, 0, 0, 0
	}
}

// timeKernel runs ev.EvalList over the list until minDur has elapsed and
// returns seconds per call (best single rep, so background noise only ever
// inflates the number it discards).
func timeKernel(ev *gravity.Evaluator, l *kernelList, minDur time.Duration) float64 {
	best := math.Inf(1)
	for elapsed := time.Duration(0); elapsed < minDur; {
		l.zero()
		t0 := time.Now()
		ev.EvalList(&l.cells, &l.src, l.sx, l.sy, l.sz, l.ax, l.ay, l.az, l.pp)
		d := time.Since(t0)
		elapsed += d
		if s := d.Seconds(); s < best {
			best = s
		}
	}
	return best
}

// kernelsBench sweeps the batched kernels over list length, verifies the
// default path bit-identical against the seed evaluation, and merges
// the results into the BENCH_treecode.json record (bumping it to
// schema_version 8).
func kernelsBench() {
	const eps = 0.01
	sinks := 64
	lengths := []int{16, 256, 4096}
	minDur := 200 * time.Millisecond
	if *quick {
		lengths = []int{16, 256}
		minDur = 50 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(11))

	// Bit-identity gate first: the default path (libm cells) must
	// reproduce the seed evaluation exactly for both body variants on a
	// randomized mixed list. This is the contract the golden-digest tests
	// pin at tree scale, re-checked here at kernel scale on every run.
	idList := makeKernelList(rng, 48, 1000, 37) // 9 groups of four sinks + 1: exercises the padded tail
	for _, karp := range []bool{false, true} {
		ev := gravity.Evaluator{Eps: eps, UseKarp: karp}
		idList.zero()
		ev.EvalList(&idList.cells, &idList.src, idList.sx, idList.sy, idList.sz,
			idList.ax, idList.ay, idList.az, idList.pp)
		wax := make([]float64, len(idList.sx))
		way := make([]float64, len(idList.sx))
		waz := make([]float64, len(idList.sx))
		wpp := make([]float64, len(idList.sx))
		gravity.EvalListReference(&idList.cells, &idList.src, idList.sx, idList.sy, idList.sz,
			eps, karp, wax, way, waz, wpp)
		for j := range wax {
			if idList.ax[j] != wax[j] || idList.ay[j] != way[j] || idList.az[j] != waz[j] || idList.pp[j] != wpp[j] {
				fmt.Fprintf(os.Stderr, "kernels: karp=%v sink %d: %s kernels NOT bit-identical to the seed evaluation\n", karp, j, gravity.KernelISA())
				os.Exit(1)
			}
		}
	}

	rep := kernelsReport{
		Sinks: sinks, Lengths: lengths, GOMAXPROCS: runtime.GOMAXPROCS(0),
		DefaultBitIdentical: true,
	}
	// The sweep proper. Each configuration isolates one kernel: the body
	// rows run a list with no cells, the cell rows a list with no bodies,
	// so ns/interaction is that kernel's cost alone.
	cfgs := []struct{ kernel, variant string }{
		{"body", "libm"},
		{"body", "karp"},
		{"cell", "libm"},
	}
	nsOf := map[string]float64{}
	for _, L := range lengths {
		var body, cell *kernelList
		body = makeKernelList(rng, 0, L, sinks)
		cell = makeKernelList(rng, L, 0, sinks)
		for _, c := range cfgs {
			l := body
			if c.kernel == "cell" {
				l = cell
			}
			ev := gravity.Evaluator{Eps: eps, UseKarp: c.variant == "karp"}
			sec := timeKernel(&ev, l, minDur)
			inter := float64(sinks) * float64(L)
			e := kernelEntry{
				Kernel: c.kernel, Variant: c.variant, Precision: "float64",
				Length: L, Sinks: sinks,
				NsPerInteraction: sec / inter * 1e9,
				InterPerSec:      inter / sec,
			}
			rep.Entries = append(rep.Entries, e)
			nsOf[fmt.Sprintf("%s/%s/%d", c.kernel, c.variant, L)] = e.NsPerInteraction
		}
	}
	longest := lengths[len(lengths)-1]
	rep.KarpSpeedupBody = ratioOf(
		nsOf[fmt.Sprintf("body/libm/%d", longest)],
		nsOf[fmt.Sprintf("body/karp/%d", longest)])

	fmt.Printf("float64 libm kernels: %s\n", gravity.KernelISA())
	fmt.Printf("batched kernel sweep, %d sinks per list (min %.0f ms per config)\n", sinks, minDur.Seconds()*1e3)
	fmt.Printf("%-6s %-8s %8s %12s %14s\n", "kernel", "variant", "length", "ns/inter", "inter/s")
	for _, e := range rep.Entries {
		fmt.Printf("%-6s %-8s %8d %12.2f %14.3e\n",
			e.Kernel, e.Variant, e.Length, e.NsPerInteraction, e.InterPerSec)
	}
	fmt.Printf("karp/libm speedup of the body kernel at length %d: %.2fx\n",
		longest, rep.KarpSpeedupBody)
	fmt.Printf("default path bit-identical to seed evaluation: true\n")

	writeKernels(rep, ledgerConfig("kernels", longest, 0, 0, 0, "", 11))
}

// writeKernels merges the kernels block into the benchmark record at
// *benchOut (preserving any existing blocks), bumps it to at least
// schema_version 8, stamps provenance, and appends the run to the ledger.
func writeKernels(kr kernelsReport, cfg ledger.Config) {
	var rep groupReport
	if data, err := os.ReadFile(*benchOut); err == nil {
		if err := json.Unmarshal(data, &rep); err != nil {
			fmt.Fprintf(os.Stderr, "kernels: existing %s unreadable: %v\n", *benchOut, err)
			os.Exit(1)
		}
	} else {
		// Fresh record with just the kernel sweep: mirror the workload
		// parameters at the top level.
		rep.N = kr.Lengths[len(kr.Lengths)-1] * kr.Sinks
		rep.Theta, rep.Eps, rep.GOMAXPROCS = 0.7, 0.01, kr.GOMAXPROCS
	}
	if rep.SchemaVersion < benchKernelsSchemaVersion {
		rep.SchemaVersion = benchKernelsSchemaVersion
	}
	rep.Kernels = &kr
	stampProvenance(&rep, cfg)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "kernels: marshal:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*benchOut, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "kernels: write:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *benchOut)
	ledgerAppend(cfg, filepath.Base(*benchOut), *benchOut)
}

// diffKernels is the kernels arm of the bench-record diff: it compares the
// kernel sweeps of two BENCH_treecode.json records and reports false when
// any matching configuration slowed past frac, or when the new record lost
// bit-identity.
func diffKernels(oldRep, newRep groupReport, oldPath string, frac float64) bool {
	if oldRep.Kernels == nil {
		fmt.Printf("kernels: baseline %s has no kernels block; nothing to compare\n", oldPath)
		return true
	}
	ok := true
	nk, ok1 := newRep.Kernels, oldRep.Kernels
	if !nk.DefaultBitIdentical {
		fmt.Printf("FAIL kernels: new record is not bit-identical on the default path\n")
		ok = false
	}
	key := func(e kernelEntry) string {
		return fmt.Sprintf("%s/%s/%s/%d", e.Kernel, e.Variant, e.Precision, e.Length)
	}
	oldBy := map[string]kernelEntry{}
	for _, e := range ok1.Entries {
		oldBy[key(e)] = e
	}
	fmt.Printf("kernel sweep (allowed +%.0f%% ns/interaction):\n", 100*frac)
	fmt.Printf("  %-28s %10s %10s %8s\n", "config", "old", "new", "ratio")
	for _, e := range nk.Entries {
		oe, have := oldBy[key(e)]
		if !have {
			fmt.Printf("  %-28s %10s %9.2fns %8s (no baseline)\n", key(e), "-", e.NsPerInteraction, "-")
			continue
		}
		r := ratioOf(e.NsPerInteraction, oe.NsPerInteraction)
		verdict := ""
		// Only gate like-for-like sweeps — a -quick record against a full
		// one still compares the shared lengths, since entries match on
		// (kernel, variant, precision, length).
		if e.NsPerInteraction > oe.NsPerInteraction*(1+frac) {
			verdict = "  REGRESSION"
			ok = false
		}
		fmt.Printf("  %-28s %9.2fns %9.2fns %7.2fx%s\n",
			key(e), oe.NsPerInteraction, e.NsPerInteraction, r, verdict)
	}
	if ok {
		fmt.Println("kernels: OK")
	}
	return ok
}
