package machine

import (
	"math"
	"testing"

	"spacesim/internal/netsim"
)

func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Abs(want)
}

// Table 5: the CPU model must reproduce the measured gravity micro-kernel
// rates for every processor, both sqrt variants, within 3%.
func TestTable5KernelRates(t *testing.T) {
	for i, c := range Table5CPUs {
		libm := c.KernelMflops(false)
		karp := c.KernelMflops(true)
		if e := relErr(libm, Table5Paper[i][0]); e > 0.03 {
			t.Errorf("%s libm = %.1f want %.1f (err %.1f%%)", c.Name, libm, Table5Paper[i][0], e*100)
		}
		if e := relErr(karp, Table5Paper[i][1]); e > 0.03 {
			t.Errorf("%s karp = %.1f want %.1f (err %.1f%%)", c.Name, karp, Table5Paper[i][1], e*100)
		}
	}
}

// The Karp transformation should win exactly on processors whose sqrt chain
// latency exceeds the cost of its extra pipelined flops — everywhere in the
// table except the 2.2 GHz P4 with gcc, per the paper.
func TestKarpWinsWhereSqrtIsSlow(t *testing.T) {
	for i, c := range Table5CPUs {
		modelWins := c.KernelMflops(true) > c.KernelMflops(false)
		paperWins := Table5Paper[i][1] > Table5Paper[i][0]
		if modelWins != paperWins {
			t.Errorf("%s: model karp-wins=%v, paper=%v", c.Name, modelWins, paperWins)
		}
	}
}

func TestCyclesPerInteractionPositive(t *testing.T) {
	for _, c := range Table5CPUs {
		if c.CyclesPerInteraction(false) <= 0 || c.CyclesPerInteraction(true) <= 0 {
			t.Fatalf("%s: nonpositive cycles", c.Name)
		}
	}
}

func TestNodeRoofline(t *testing.T) {
	n := SpaceSimulatorNode
	// pure compute: 5.06 Gflops at eff 1 takes 1 second
	if got := n.CPUTime(5.06e9, 1.0); relErr(got, 1.0) > 1e-12 {
		t.Fatalf("CPUTime = %v", got)
	}
	// pure memory: a triad over 1238.2 MB takes 1 second
	if got := n.MemTime(1238.2e6); relErr(got, 1.0) > 1e-12 {
		t.Fatalf("MemTime = %v", got)
	}
	if got := n.Time(5.06e9, 1.0, 1238.2e6); relErr(got, 2.0) > 1e-12 {
		t.Fatalf("Time = %v", got)
	}
	if got := n.DiskTime(28e6); relErr(got, 1.0) > 1e-12 {
		t.Fatalf("DiskTime = %v", got)
	}
}

func TestCPUTimePanicsOnBadEff(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for eff > 1")
		}
	}()
	SpaceSimulatorNode.CPUTime(1, 1.5)
}

func TestSpaceSimulatorCluster(t *testing.T) {
	c := SpaceSimulator(netsim.ProfileLAM)
	if c.Nodes != 294 {
		t.Fatal("SS has 294 nodes")
	}
	// Theoretical peak just below 1.5 Tflop/s (abstract).
	peak := c.PeakFlops()
	if peak < 1.45e12 || peak > 1.5e12 {
		t.Fatalf("SS peak = %.3g, want just below 1.5 Tflop/s", peak)
	}
	// Price/performance at the measured 665.1 Linpack Gflop/s: ~73 cents;
	// at 757.1 Gflop/s: 63.9 cents (the paper's headline).
	cpm := c.DollarsPerMflops(757.1e9)
	if math.Abs(cpm-0.639) > 0.01 {
		t.Fatalf("$/Mflops = %v want 0.639", cpm)
	}
}

// Table 6: modeled aggregate treecode rates must match the measured column
// within 5% for every historical machine.
func TestTable6TreecodeRates(t *testing.T) {
	for _, m := range Table6Machines {
		if e := relErr(m.Gflops(), m.PaperGflops); e > 0.05 {
			t.Errorf("%s: modeled %.2f Gflop/s want %.2f (err %.1f%%)",
				m.Name, m.Gflops(), m.PaperGflops, e*100)
		}
		if e := relErr(m.MflopsPerProc(), m.PaperMflopsPerProc); e > 0.05 {
			t.Errorf("%s: modeled %.1f Mflops/proc want %.1f",
				m.Name, m.MflopsPerProc(), m.PaperMflopsPerProc)
		}
	}
}

// The historical table should show monotone-ish per-processor improvement
// with year — the Moore's-law story of the conclusions.
func TestTable6PerProcTrend(t *testing.T) {
	first := Table6Machines[len(Table6Machines)-1] // 1993 Delta
	last := Table6Machines[1]                      // 2003 SS
	ratio := last.MflopsPerProc() / first.MflopsPerProc()
	if ratio < 20 {
		t.Fatalf("1993->2003 per-proc improvement = %.1fx, want >20x", ratio)
	}
}
