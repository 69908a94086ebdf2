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
	// Variant names what ran. "avx512", "avx2" and "go" are the production
	// kernel (Newton reciprocal square root, fused multiply-adds) in
	// eight-lane blocks, in four-lane blocks and in the Go loop;
	// "scalar-libm" (math.Sqrt and a divide) and "scalar-karp" (the
	// table-driven reciprocal square root) are the micro-kernels of the
	// paper's Table 5, one sink at a time, body only — the baselines. ("libm"
	// and "karp" in older records were batched kernels that no longer
	// exist; they pair with nothing.)
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
// (schema_version 8): the production kernels at each width this CPU has
// beside the two scalar micro-kernels of the paper's Table 5, and the
// bit-identity verdict of every width against the scalar reference. (v8
// records written before PR 20 also carry rms_acc_err_float32 and
// float32_err_budget; they are ignored.)
type kernelsReport struct {
	Sinks      int   `json:"sinks"`
	Lengths    []int `json:"lengths"`
	GOMAXPROCS int   `json:"gomaxprocs"`
	// Entries is the sweep over list length: the two scalar body kernels,
	// then the production body and cell kernels per width.
	Entries []kernelEntry `json:"entries"`
	// KarpSpeedupBody is libm ns / karp ns for the scalar body kernels at
	// the longest list length (>1 means Karp wins, the paper's claim for
	// hardware with slow sqrt/divide).
	KarpSpeedupBody float64 `json:"karp_speedup_body"`
	// NewtonSpeedupBody is libm ns / production ns at the widest width and
	// the longest list: what dropping the square root and the divide, and
	// evaluating a register of sinks at a time, buys on this host.
	NewtonSpeedupBody float64 `json:"newton_speedup_body,omitempty"`
	// DefaultBitIdentical reports that every width of the production
	// kernels this CPU has reproduced the scalar reference
	// (gravity.EvalListReference: Multipole.AccelAt's arithmetic and the Go
	// body loop) bit for bit on randomized lists. The run aborts when one
	// does not, so a written record always says true.
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
// domain of validity and the reciprocal square roots see realistic
// exponents).
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

// kernelWidth is one production kernel body and the sink-group size that
// selects it: nothing outside the gravity package chooses a body, but a call
// with at most four sinks is one four-lane block, and with eight (or 64)
// only eight-lane blocks where the CPU has them.
type kernelWidth struct {
	variant string
	group   int
}

// kernelWidths lists the bodies this CPU has, widest last.
func kernelWidths() []kernelWidth {
	switch gravity.KernelISA() {
	case "avx512":
		return []kernelWidth{{"avx2", 4}, {"avx512", 8}}
	case "avx2":
		return []kernelWidth{{"avx2", 4}}
	}
	return []kernelWidth{{"go", 8}}
}

// evalGrouped applies the list to its sinks, group sinks to a call.
func (l *kernelList) evalGrouped(ev *gravity.Evaluator, list *gravity.List, group int) {
	for lo := 0; lo < len(l.sx); lo += group {
		hi := min(lo+group, len(l.sx))
		ev.Eval(list, l.sx[lo:hi], l.sy[lo:hi], l.sz[lo:hi], l.ax[lo:hi], l.ay[lo:hi], l.az[lo:hi], l.pp[lo:hi])
	}
}

// scalarKernel runs a Table 5 micro-kernel over the list's bodies for every
// sink.
func (l *kernelList) scalarKernel(src []gravity.Source, eps2 float64, k func(vec.V3, []gravity.Source, float64) (vec.V3, float64)) {
	for j := range l.sx {
		a, p := k(vec.V3{l.sx[j], l.sy[j], l.sz[j]}, src, eps2)
		l.ax[j], l.ay[j], l.az[j], l.pp[j] = a[0], a[1], a[2], p
	}
}

// timeBest calls f until minDur has elapsed and returns the seconds of its
// best single call, so background noise only ever inflates the numbers it
// discards.
func timeBest(minDur time.Duration, f func()) float64 {
	best := math.Inf(1)
	for elapsed := time.Duration(0); elapsed < minDur; {
		t0 := time.Now()
		f()
		d := time.Since(t0)
		elapsed += d
		best = min(best, d.Seconds())
	}
	return best
}

// kernelsBench verifies every width of the production kernels bit-identical
// to the scalar reference, sweeps them and the two scalar Table 5
// micro-kernels over list length, and merges the results into the
// BENCH_treecode.json record (bumping it to schema_version 8).
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
	ev := gravity.Evaluator{Eps: eps}
	widths := kernelWidths()

	// Bit-identity gate first: every width must reproduce the scalar
	// reference exactly on a randomized mixed list. This is the contract
	// the golden-digest tests pin at tree scale, re-checked here at kernel
	// scale on every run.
	idList := makeKernelList(rng, 48, 1000, 37) // eight-lane blocks, then a padded four-lane tail
	wax := make([]float64, len(idList.sx))
	way := make([]float64, len(idList.sx))
	waz := make([]float64, len(idList.sx))
	wpp := make([]float64, len(idList.sx))
	gravity.EvalListReference(&idList.cells, &idList.src, idList.sx, idList.sy, idList.sz, eps, wax, way, waz, wpp)
	for _, group := range []int{len(idList.sx), 4, 3} {
		idList.zero()
		idList.evalGrouped(&ev, &gravity.List{Cells: idList.cells.Refs(), Segs: [][]gravity.Source{idList.src.Rows()}}, group)
		for j := range wax {
			if idList.ax[j] != wax[j] || idList.ay[j] != way[j] || idList.az[j] != waz[j] || idList.pp[j] != wpp[j] {
				fmt.Fprintf(os.Stderr, "kernels: sink %d, %d sinks to a call: %s kernels NOT bit-identical to the scalar reference\n", j, group, gravity.KernelISA())
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
	nsOf := map[string]float64{}
	for _, L := range lengths {
		record := func(kernel, variant string, sec float64) {
			inter := float64(sinks) * float64(L)
			e := kernelEntry{
				Kernel: kernel, Variant: variant, Precision: "float64",
				Length: L, Sinks: sinks,
				NsPerInteraction: sec / inter * 1e9,
				InterPerSec:      inter / sec,
			}
			rep.Entries = append(rep.Entries, e)
			nsOf[fmt.Sprintf("%s/%s/%d", kernel, variant, L)] = e.NsPerInteraction
		}
		body := makeKernelList(rng, 0, L, sinks)
		cell := makeKernelList(rng, L, 0, sinks)
		src := body.src.Rows()
		record("body", "scalar-libm", timeBest(minDur, func() { body.scalarKernel(src, eps*eps, gravity.KernelLibm) }))
		record("body", "scalar-karp", timeBest(minDur, func() { body.scalarKernel(src, eps*eps, gravity.KernelKarp) }))
		bodyList := &gravity.List{Segs: [][]gravity.Source{src}}
		cellList := &gravity.List{Cells: cell.cells.Refs()}
		for _, w := range widths {
			record("body", w.variant, timeBest(minDur, func() { body.zero(); body.evalGrouped(&ev, bodyList, w.group) }))
			record("cell", w.variant, timeBest(minDur, func() { cell.zero(); cell.evalGrouped(&ev, cellList, w.group) }))
		}
	}
	longest := lengths[len(lengths)-1]
	libm := nsOf[fmt.Sprintf("body/scalar-libm/%d", longest)]
	rep.KarpSpeedupBody = ratioOf(libm, nsOf[fmt.Sprintf("body/scalar-karp/%d", longest)])
	widest := widths[len(widths)-1].variant
	rep.NewtonSpeedupBody = ratioOf(libm, nsOf[fmt.Sprintf("body/%s/%d", widest, longest)])

	fmt.Printf("production kernels: %s\n", gravity.KernelISA())
	fmt.Printf("kernel sweep, %d sinks per list (min %.0f ms per config); scalar-* are the Table 5 micro-kernels\n", sinks, minDur.Seconds()*1e3)
	fmt.Printf("%-6s %-12s %8s %12s %14s\n", "kernel", "variant", "length", "ns/inter", "inter/s")
	for _, e := range rep.Entries {
		fmt.Printf("%-6s %-12s %8d %12.2f %14.3e\n",
			e.Kernel, e.Variant, e.Length, e.NsPerInteraction, e.InterPerSec)
	}
	fmt.Printf("scalar karp vs scalar libm body kernel at length %d: %.2fx\n", longest, rep.KarpSpeedupBody)
	fmt.Printf("production (%s) vs scalar libm body kernel at length %d: %.2fx\n", widest, longest, rep.NewtonSpeedupBody)
	fmt.Printf("all widths bit-identical to the scalar reference: true\n")

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
		fmt.Printf("FAIL kernels: new record's widths are not bit-identical to the scalar reference\n")
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
