package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"spacesim/internal/obs/ledger"
)

// Verdicts of -compare for one workload x end-to-end metric.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// setupFloorS keeps a set-up time of a few milliseconds from tripping its
// relative bound on scheduler noise: setup_s is worse only when it is
// worse by more than its bound and by more than this many seconds.
const setupFloorS = 0.05

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != recordSchema {
		return nil, fmt.Errorf("%s: record schema %d, this benchmark writes %d", path, r.Schema, recordSchema)
	}
	return &r, nil
}

// judge compares metric b against baseline a under a's declared direction
// and bound. worseBy is the share of a's value by which b is worse
// (negative when b is better). A side whose repeated runs spread wider
// than the bound cannot resolve a difference of that size.
func judge(name string, a, b recordMetric) (worseBy float64, verdict string) {
	if a.Value != 0 {
		worseBy = (b.Value - a.Value) / math.Abs(a.Value)
		if a.Better == "higher" {
			worseBy = -worseBy
		}
	}
	for _, side := range []recordMetric{a, b} {
		if len(side.Values) >= 2 && iqrShare(side.Values) > a.Bound {
			return worseBy, verdictUnresolved
		}
	}
	if worseBy > a.Bound && !(name == "setup_s" && math.Abs(b.Value-a.Value) <= setupFloorS) {
		return worseBy, verdictWorse
	}
	return worseBy, verdictOK
}

// compareRecords prints one row per workload x end-to-end metric and
// returns how many rows were worse and how many unresolved.
func compareRecords(a, b *record) (worse, unresolved int) {
	if !ledger.SameHost(a.Host.Provenance, b.Host.Provenance) || a.Host.CPUModel != b.Host.CPUModel {
		fmt.Printf("note: records come from different hosts (%s, %s vs %s, %s)\n",
			a.Host.HostKey(), a.Host.CPUModel, b.Host.HostKey(), b.Host.CPUModel)
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Printf("note: records differ in seed or run length (seed %d/%d, seconds %d/%d)\n", a.Seed, b.Seed, a.Seconds, b.Seconds)
	}
	fmt.Printf("%-18s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "verdict")
	bw := map[string]workloadRecord{}
	for _, w := range b.Workloads {
		bw[w.Name] = w
	}
	for _, wa := range a.Workloads {
		wb, ok := bw[wa.Name]
		if !ok {
			fmt.Printf("%-18s missing from B\n", wa.Name)
			worse++
			continue
		}
		names := make([]string, 0, len(wa.EndToEnd))
		for name := range wa.EndToEnd {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ma := wa.EndToEnd[name]
			mb, ok := wb.EndToEnd[name]
			verdict := verdictWorse // a metric B lost, or a failed run, misses every bound
			worseBy := math.NaN()
			if ok && wb.OpsFailed == 0 {
				worseBy, verdict = judge(name, ma, mb)
			}
			switch verdict {
			case verdictWorse:
				worse++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Printf("%-18s %-18s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
				wa.Name, name, ma.Value, mb.Value, 100*worseBy, 100*ma.Bound, verdict)
		}
	}
	return worse, unresolved
}

func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two record files, got %d arguments", len(args))
	}
	a, err := readRecord(args[0])
	if err != nil {
		return err
	}
	b, err := readRecord(args[1])
	if err != nil {
		return err
	}
	worse, unresolved := compareRecords(a, b)
	fmt.Printf("%d worse, %d unresolved\n", worse, unresolved)
	if worse > 0 {
		return fmt.Errorf("%d end-to-end metrics are worse than their bound allows", worse)
	}
	return nil
}
