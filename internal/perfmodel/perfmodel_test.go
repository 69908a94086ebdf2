package perfmodel

import (
	"math"
	"testing"
)

// Normal is the normal node of Table 2, against which every ratio is taken.
var Normal = Config{Name: "Normal", CPUFactor: 1, MemFactor: 1}

func TestConfigs(t *testing.T) {
	if math.Abs(Overclock.CPUFactor-1.0526) > 0.001 {
		t.Fatalf("overclock factor = %v", Overclock.CPUFactor)
	}
}

func TestNormalValuesIdentity(t *testing.T) {
	for _, w := range Table2Workloads() {
		if got := w.Value(Normal); math.Abs(got-w.NormalValue) > 1e-9 {
			t.Fatalf("%s: normal value %v != %v", w.Name, got, w.NormalValue)
		}
		if w.Ratio(Normal) != 1 {
			t.Fatalf("%s: normal ratio != 1", w.Name)
		}
	}
}

// Table 2: every modeled ratio must land within 0.08 of the measured one
// for slow-mem and slow-CPU, and 0.05 for overclock.
func TestTable2RatiosMatchPaper(t *testing.T) {
	tols := []float64{0.08, 0.08, 0.05}
	cfgs := []Config{SlowMem, SlowCPU, Overclock}
	for _, w := range Table2Workloads() {
		paper, ok := Table2Paper[w.Name]
		if !ok {
			t.Fatalf("no paper row for %s", w.Name)
		}
		for i, c := range cfgs {
			got := w.Ratio(c)
			if math.Abs(got-paper[i]) > tols[i] {
				t.Errorf("%s %s: modeled ratio %.3f, paper %.3f", w.Name, c.Name, got, paper[i])
			}
		}
	}
}

// The qualitative Table 2 conclusion: "the performance of most benchmarks
// is sensitive to memory bandwidth, and less so to CPU frequency" — for the
// memory-bound NPB kernels, slow-mem hurts more than slow-CPU even though
// the CPU was slowed by a bigger factor relatively (0.75 vs 0.6 reaches
// ratio 0.6 vs ~0.9).
func TestMemoryBoundShape(t *testing.T) {
	for _, name := range []string{"BT", "SP", "MG", "CG", "triad"} {
		for _, w := range Table2Workloads() {
			if w.Name != name {
				continue
			}
			if w.Ratio(SlowMem) > 0.72 {
				t.Errorf("%s: slow-mem ratio %.3f should be near 0.6", name, w.Ratio(SlowMem))
			}
			if w.Ratio(SlowCPU) < 0.85 {
				t.Errorf("%s: slow-CPU ratio %.3f should be near 0.9", name, w.Ratio(SlowCPU))
			}
		}
	}
	// Linpack is the opposite: compute-bound.
	for _, w := range Table2Workloads() {
		if w.Name == "Linpack" {
			if w.Ratio(SlowCPU) > w.Ratio(SlowMem) {
				t.Error("Linpack must be more CPU-sensitive than memory-sensitive")
			}
		}
	}
}

func TestOverclockGainsEverywhere(t *testing.T) {
	for _, w := range Table2Workloads() {
		r := w.Ratio(Overclock)
		if r < 1.04 || r > 1.06 {
			t.Errorf("%s: overclock ratio %.4f outside [1.04,1.06]", w.Name, r)
		}
	}
}

// Section 3.5: $1.20 per SPECfp; the Itanium2 system must cost < $2546 to
// match; July 2003 node prices reach ~$0.93/SPECfp.
func TestSPECPricePerformance(t *testing.T) {
	r := SPEC()
	if math.Abs(r.DollarsPerSPECfp-1.20) > 0.01 {
		t.Fatalf("$/SPECfp = %v", r.DollarsPerSPECfp)
	}
	if r.BreakEvenPriceUSD > 2600 || r.BreakEvenPriceUSD < 2450 {
		t.Fatalf("break-even = %v, paper ~2500", r.BreakEvenPriceUSD)
	}
	if r.JulyDollarsPerSPECf >= 1.0 {
		t.Fatalf("July $/SPECfp = %v, paper: better than $1.00", r.JulyDollarsPerSPECf)
	}
}
