package cluster

import (
	"math"
	"strings"
	"testing"
)

// Table 1: total $483,855, $1646 per node, network share $728 (44%).
func TestSpaceSimulatorBOM(t *testing.T) {
	b := SpaceSimulatorBOM()
	if got := b.Total(); math.Abs(got-483855) > 0.5 {
		t.Fatalf("total = %v want 483855", got)
	}
	if got := b.PerNode(); math.Abs(got-1646) > 1 {
		t.Fatalf("per node = %v want ~1646", got)
	}
	usd, frac := b.NetworkShare()
	if math.Abs(usd-728) > 2 {
		t.Fatalf("network per node = %v want ~728", usd)
	}
	if math.Abs(frac-0.44) > 0.01 {
		t.Fatalf("network fraction = %v want ~0.44", frac)
	}
	// peak just below 1.5 Tflop/s
	peak := float64(b.Nodes) * b.PeakFlopsPerNode
	if peak < 1.45e12 || peak >= 1.5e12 {
		t.Fatalf("peak = %v", peak)
	}
}

// Table 7: total $51,379, $3211 per node.
func TestLokiBOM(t *testing.T) {
	b := LokiBOM()
	if got := b.Total(); math.Abs(got-51379) > 0.5 {
		t.Fatalf("total = %v want 51379", got)
	}
	if got := b.PerNode(); math.Abs(got-3211) > 1 {
		t.Fatalf("per node = %v want ~3211", got)
	}
}

func TestRender(t *testing.T) {
	out := SpaceSimulatorBOM().Render()
	for _, want := range []string{"Shuttle SS51G", "Foundry", "483855", "1646"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// Section 2: the 294-node cluster fits the ~35 kW cooling budget.
func TestPowerBudget(t *testing.T) {
	p := SpaceSimulatorPower()
	if p.TotalWatts() > p.LimitWatts {
		t.Fatalf("total %v W exceeds %v W", p.TotalWatts(), p.LimitWatts)
	}
	if p.MaxNodes() < p.Nodes {
		t.Fatalf("max nodes %d < built %d", p.MaxNodes(), p.Nodes)
	}
	// but not wildly oversized: the limit was a real constraint
	if p.MaxNodes() > 2*p.Nodes {
		t.Fatalf("power budget would allow %d nodes; the paper treats 35 kW as binding", p.MaxNodes())
	}
}

func TestMooreFactor(t *testing.T) {
	if got := MooreFactor(6); math.Abs(got-16) > 1e-9 {
		t.Fatalf("6-year Moore factor = %v want 16", got)
	}
	if got := MooreFactor(1.5); math.Abs(got-2) > 1e-9 {
		t.Fatalf("18-month factor = %v", got)
	}
}

// Section 5 component ratios: disks improved ~7x beyond Moore (111 $/GB ->
// ~1 $/GB), RAM ~2x beyond.
func TestComponentRatios(t *testing.T) {
	c := Components(LokiBOM(), SpaceSimulatorBOM(), 6)
	if math.Abs(c.DiskUSDPerGBOld-111) > 1 {
		t.Fatalf("Loki disk $/GB = %v want ~111", c.DiskUSDPerGBOld)
	}
	if c.DiskUSDPerGBNew > 1.1 {
		t.Fatalf("SS disk $/GB = %v want ~1", c.DiskUSDPerGBNew)
	}
	if c.DiskVsMoore < 6 || c.DiskVsMoore > 8 {
		t.Fatalf("disk beyond-Moore factor = %v want ~7", c.DiskVsMoore)
	}
	if math.Abs(c.RAMUSDPerMBOld-7.35) > 0.01 {
		t.Fatalf("Loki RAM $/MB = %v want 7.35", c.RAMUSDPerMBOld)
	}
	if math.Abs(c.RAMUSDPerMBNew-0.23) > 0.005 {
		t.Fatalf("SS RAM $/MB = %v want ~0.23", c.RAMUSDPerMBNew)
	}
	if c.RAMVsMoore < 1.8 || c.RAMVsMoore > 2.2 {
		t.Fatalf("RAM beyond-Moore factor = %v want ~2", c.RAMVsMoore)
	}
}

// Section 5 NPB comparison: improvement ratios 12.6, 10.0, 15.5, 15.5 and
// price/performance beyond Moore: +25% for BT, ~2x for LU and MG.
func TestNPBComparisons(t *testing.T) {
	rows := NPBComparisons()
	want := map[string]float64{"BT": 12.6, "SP": 10.0, "LU": 15.5, "MG": 15.5}
	for _, r := range rows {
		if w := want[r.Benchmark]; math.Abs(r.Improvement-w) > 0.2 {
			t.Fatalf("%s improvement = %v want %v", r.Benchmark, r.Improvement, w)
		}
	}
	for _, r := range rows {
		switch r.Benchmark {
		case "BT":
			if r.PricePerfVsMoore < 1.1 || r.PricePerfVsMoore > 1.7 {
				t.Fatalf("BT beyond-Moore = %v want ~1.25-1.5", r.PricePerfVsMoore)
			}
		case "LU", "MG":
			if r.PricePerfVsMoore < 1.6 || r.PricePerfVsMoore > 2.3 {
				t.Fatalf("%s beyond-Moore = %v want ~2", r.Benchmark, r.PricePerfVsMoore)
			}
		}
	}
}

// Section 5 treecode: 140x improvement vs 150x predicted by price x Moore.
func TestTreecodeMoore(t *testing.T) {
	r := TreecodeMoore()
	if math.Abs(r.Improvement-140.6) > 1 {
		t.Fatalf("improvement = %v want ~140", r.Improvement)
	}
	if math.Abs(r.PriceRatio-9.4) > 0.1 {
		t.Fatalf("price ratio = %v want ~9.4", r.PriceRatio)
	}
	if math.Abs(r.MoorePrediction-150) > 3 {
		t.Fatalf("prediction = %v want ~150", r.MoorePrediction)
	}
	if r.ImprovementVsPredicted < 0.9 || r.ImprovementVsPredicted > 1.05 {
		t.Fatalf("vs predicted = %v: should not differ much from Moore's law", r.ImprovementVsPredicted)
	}
}
