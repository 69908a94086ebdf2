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

	"spacesim/internal/core"
	"spacesim/internal/htree"
	"spacesim/internal/obs/ledger"
	"spacesim/internal/vec"
)

// benchSchemaVersion is the BENCH_treecode.json schema written once the
// treebuild block is merged in (see the history on groupReport).
const benchSchemaVersion = 4

// treebuildEntry is one timed pipeline configuration.
type treebuildEntry struct {
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
	// SpeedupVsSeed is seed_seconds / seconds.
	SpeedupVsSeed float64           `json:"speedup_vs_seed"`
	Phases        htree.BuildPhases `json:"phases"`
}

// treebuildReport is the `treebuild` block of BENCH_treecode.json
// (schema_version 4): construction-phase timings of the parallel pipeline
// against the serial seed path, plus the bit-identity verdict.
type treebuildReport struct {
	N          int `json:"n"`
	MaxLeaf    int `json:"max_leaf"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// SeedSeconds times the seed algorithm (serial keying, comparison
	// sort, map-based recursive build — htree.BuildReference, excluding
	// its flat-store conversion); SeedPhases is its breakdown.
	SeedSeconds float64           `json:"seed_seconds"`
	SeedPhases  htree.BuildPhases `json:"seed_phases"`
	Entries     []treebuildEntry  `json:"entries"`
	// BitIdentical reports whether every pipeline configuration produced
	// exactly the reference tree and accelerations (the run aborts when
	// it does not, so a written record always says true).
	BitIdentical bool `json:"bit_identical"`
}

// treebuildBench times tree construction — the seed serial path against the
// parallel pipeline at several worker counts — verifies bit-identity, and
// merges the results into the BENCH_treecode.json record (bumping it to
// schema_version 4).
func treebuildBench() {
	n := 32768
	reps := 5
	if *quick {
		n, reps = 4096, 3
	}
	maxLeaf := 16
	rng := rand.New(rand.NewSource(1))
	ics := core.PlummerSphere(rng, n, 1.0)
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i, b := range ics {
		pos[i], mass[i] = b.Pos, b.Mass
	}
	opt := htree.Options{MaxLeaf: maxLeaf}

	// Seed baseline: best-of-reps over the seed algorithm alone (the
	// reference path's flat-store conversion is excluded — it exists only
	// so the returned tree is walkable, see BuildReference).
	var ref *htree.Tree
	seedSec := math.Inf(1)
	var seedPhases htree.BuildPhases
	for r := 0; r < reps; r++ {
		tr, err := htree.BuildReference(pos, mass, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "treebuild: reference build:", err)
			os.Exit(1)
		}
		if s := tr.Phases.Total() - tr.Phases.MergeSec; s < seedSec {
			seedSec, seedPhases = s, tr.Phases
		}
		ref = tr
	}
	if err := ref.CheckInvariants(); err != nil {
		fmt.Fprintln(os.Stderr, "treebuild: reference invariants:", err)
		os.Exit(1)
	}
	refAcc, refPot, _ := ref.AccelAll(0.7, 0.01, true)

	workerSet := []int{1, 2, 4}
	if nw := runtime.GOMAXPROCS(0); nw > 4 {
		workerSet = append(workerSet, nw)
	}
	rep := treebuildReport{
		N: n, MaxLeaf: maxLeaf, GOMAXPROCS: runtime.GOMAXPROCS(0),
		SeedSeconds: seedSec, SeedPhases: seedPhases,
		BitIdentical: true,
	}
	for _, w := range workerSet {
		o := opt
		o.Workers = w
		o.Arena = &htree.Arena{}
		var tr *htree.Tree
		best := math.Inf(1)
		var phases htree.BuildPhases
		// One extra warm-up rep charges the arena, so the timed builds see
		// the steady per-step rebuild cost.
		for r := 0; r < reps+1; r++ {
			t0 := time.Now()
			t, err := htree.Build(pos, mass, o)
			dt := time.Since(t0).Seconds()
			if err != nil {
				fmt.Fprintln(os.Stderr, "treebuild: build:", err)
				os.Exit(1)
			}
			tr = t
			if r > 0 && dt < best {
				best, phases = dt, t.Phases
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			fmt.Fprintf(os.Stderr, "treebuild: workers=%d invariants: %v\n", w, err)
			os.Exit(1)
		}
		if !sameAsReference(ref, tr, refAcc, refPot) {
			fmt.Fprintf(os.Stderr, "treebuild: workers=%d NOT bit-identical to the serial reference\n", w)
			os.Exit(1)
		}
		rep.Entries = append(rep.Entries, treebuildEntry{
			Workers: w, Seconds: best,
			SpeedupVsSeed: seedSec / best,
			Phases:        phases,
		})
	}

	fmt.Printf("tree construction, Plummer N=%d, leaf=%d (best of %d, arena-warm)\n", n, maxLeaf, reps)
	fmt.Printf("%-14s %10s %10s %8s %8s %8s %8s %9s\n",
		"path", "time", "key", "sort", "build", "merge", "", "speedup")
	fmt.Printf("%-14s %9.2fms %8.2fms %6.2fms %6.2fms %6.2fms %8s %9s\n",
		"seed-serial", seedSec*1e3, seedPhases.KeySec*1e3, seedPhases.SortSec*1e3,
		seedPhases.BuildSec*1e3, 0.0, "", "1.00x")
	for _, e := range rep.Entries {
		fmt.Printf("pipeline w=%-3d %9.2fms %8.2fms %6.2fms %6.2fms %6.2fms %8s %8.2fx\n",
			e.Workers, e.Seconds*1e3, e.Phases.KeySec*1e3, e.Phases.SortSec*1e3,
			e.Phases.BuildSec*1e3, e.Phases.MergeSec*1e3, "", e.SpeedupVsSeed)
	}
	fmt.Printf("bit-identical to serial reference across workers %v: true\n", workerSet)

	writeTreebuild(rep, ledgerConfig("treebuild", n, 0, 0, 0, "pipeline", 1))
}

// sameAsReference checks tree equality (bodies and every cell) and
// bit-exact accelerations/potentials against the reference.
func sameAsReference(ref, tr *htree.Tree, refAcc []vec.V3, refPot []float64) bool {
	if len(ref.Bodies) != len(tr.Bodies) || ref.NumCells() != tr.NumCells() {
		return false
	}
	for i := range ref.Bodies {
		if ref.Bodies[i] != tr.Bodies[i] {
			return false
		}
	}
	acc, pot, _ := tr.AccelAll(0.7, 0.01, true)
	for i := range acc {
		if acc[i] != refAcc[i] || pot[i] != refPot[i] {
			return false
		}
	}
	return true
}

// isBenchFile reports whether the JSON file at path is a BENCH_treecode.json
// record rather than an ANALYSIS.json report — both carry a schema_version,
// so the discriminator is the bench-only top-level blocks. Unreadable or
// non-JSON files report false and are left for the analysis reader to
// diagnose.
func isBenchFile(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return false
	}
	if _, ok := probe["results"]; ok {
		return true
	}
	if _, ok := probe["kernels"]; ok {
		return true
	}
	_, ok := probe["treebuild"]
	return ok
}

// readGroupReport loads a BENCH_treecode.json record, exiting with the
// diff usage code on unreadable input.
func readGroupReport(path string) groupReport {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diff:", err)
		os.Exit(2)
	}
	var rep groupReport
	if err := json.Unmarshal(data, &rep); err != nil {
		fmt.Fprintf(os.Stderr, "diff: %s: %v\n", path, err)
		os.Exit(2)
	}
	return rep
}

// diffTreebuild is the treebuild arm of the bench-record diff: it compares
// the treebuild blocks of two BENCH_treecode.json records and reports false
// when construction time regressed past frac at any worker count, or when
// the new record is not bit-identical.
func diffTreebuild(oldRep, newRep groupReport, oldPath string, frac float64) bool {
	if oldRep.Treebuild == nil {
		fmt.Printf("treebuild: baseline %s has no treebuild block; nothing to compare\n", oldPath)
		return true
	}
	ok := true
	nb, ob := newRep.Treebuild, oldRep.Treebuild
	if !nb.BitIdentical {
		fmt.Printf("FAIL treebuild: new record is not bit-identical\n")
		ok = false
	}
	oldByW := map[int]treebuildEntry{}
	for _, e := range ob.Entries {
		oldByW[e.Workers] = e
	}
	fmt.Printf("treebuild construction (N=%d vs N=%d, allowed +%.0f%%):\n", ob.N, nb.N, 100*frac)
	fmt.Printf("  %-12s %10s %10s %8s\n", "config", "old", "new", "ratio")
	fmt.Printf("  %-12s %9.2fms %9.2fms %7.2fx\n", "seed-serial",
		ob.SeedSeconds*1e3, nb.SeedSeconds*1e3, ratioOf(nb.SeedSeconds, ob.SeedSeconds))
	for _, e := range nb.Entries {
		oe, have := oldByW[e.Workers]
		if !have {
			fmt.Printf("  %-12s %10s %9.2fms %8s (no baseline)\n",
				fmt.Sprintf("workers=%d", e.Workers), "-", e.Seconds*1e3, "-")
			continue
		}
		r := ratioOf(e.Seconds, oe.Seconds)
		verdict := ""
		// Only gate like-for-like problem sizes — a -quick record against a
		// full one is reported but not failed.
		if nb.N == ob.N && e.Seconds > oe.Seconds*(1+frac) {
			verdict = "  REGRESSION"
			ok = false
		}
		fmt.Printf("  %-12s %9.2fms %9.2fms %7.2fx%s\n",
			fmt.Sprintf("workers=%d", e.Workers), oe.Seconds*1e3, e.Seconds*1e3, r, verdict)
	}
	if ok {
		fmt.Println("treebuild: OK")
	}
	return ok
}

// ratioOf returns a/b guarding against a zero baseline.
func ratioOf(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// writeTreebuild merges the treebuild block into the benchmark record at
// *benchOut — preserving an existing group report's fields if the file is
// already there — bumps it to at least schema_version 4, stamps the writing
// invocation's provenance, and appends the run to the ledger.
func writeTreebuild(tb treebuildReport, cfg ledger.Config) {
	var rep groupReport
	if data, err := os.ReadFile(*benchOut); err == nil {
		if err := json.Unmarshal(data, &rep); err != nil {
			fmt.Fprintf(os.Stderr, "treebuild: existing %s unreadable: %v\n", *benchOut, err)
			os.Exit(1)
		}
	} else {
		// Fresh record with just the construction benchmark: mirror the
		// workload parameters at the top level.
		rep.N, rep.MaxLeaf, rep.GOMAXPROCS = tb.N, tb.MaxLeaf, tb.GOMAXPROCS
		rep.Theta, rep.Eps = 0.7, 0.01
	}
	// Merge order must not downgrade the record: a file at a later version
	// keeps it when only the treebuild block is refreshed.
	if rep.SchemaVersion < benchSchemaVersion {
		rep.SchemaVersion = benchSchemaVersion
	}
	rep.Treebuild = &tb
	stampProvenance(&rep, cfg)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "treebuild: marshal:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*benchOut, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "treebuild: write:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *benchOut)
	ledgerAppend(cfg, filepath.Base(*benchOut), *benchOut)
}
