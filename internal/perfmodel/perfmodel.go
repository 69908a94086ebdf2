// Package perfmodel implements the BIOS clock-scaling study of Table 2: the
// Shuttle XPC's setup allows the CPU and memory clocks to be scaled
// independently, and the paper measures how STREAM, the NPB kernels, SPEC
// CPU2000 and Linpack respond. Each benchmark is characterized by its
// compute/memory time split on the normal node (the two-resource roofline
// of package machine); the four machine configurations then follow.
//
// SPEC CPU2000 cannot be reimplemented (licensed sources), so CINT2000 and
// CFP2000 enter as fixed compute/memory mixes calibrated to the published
// Table 2 ratios — the documented substitution of DESIGN.md.
package perfmodel

import "spacesim/internal/machine"

// Config is one column of Table 2.
type Config struct {
	Name      string
	CPUFactor float64
	MemFactor float64
}

// The three Table 2 configurations beside the DDR333/2.53 GHz normal node
// (factors 1): memory clocked 2x166 -> 2x100 MHz (0.6); CPU clocked 2.53 ->
// 1.9 GHz (0.75); FSB overclocked 133 -> 140 MHz, speeding both by 1.0526.
var (
	SlowMem   = Config{Name: "Slow mem", CPUFactor: 1, MemFactor: 0.6}
	SlowCPU   = Config{Name: "Slow CPU", CPUFactor: 0.75, MemFactor: 1}
	Overclock = Config{Name: "Overclock", CPUFactor: 140.0 / 133.0, MemFactor: 140.0 / 133.0}
)

// Workload characterizes one benchmark row: the fraction of its normal-node
// execution time spent waiting on memory (memFrac), the rest scaling with
// the CPU clock, plus the value it reports on the normal node and its unit.
type Workload struct {
	Name    string
	MemFrac float64
	// NormalValue is the measured normal-configuration figure (MB/s for
	// STREAM, Mop/s for NPB, SPEC marks, Gflop/s for Linpack).
	NormalValue float64
	Unit        string
}

// Value returns the modeled benchmark figure under a configuration:
// benchmark rates are inversely proportional to t = memFrac/mem +
// (1-memFrac)/cpu.
func (w Workload) Value(c Config) float64 {
	t := w.MemFrac/c.MemFactor + (1-w.MemFrac)/c.CPUFactor
	return w.NormalValue / t
}

// Ratio returns Value(c)/NormalValue — the parenthesized numbers of Table 2.
func (w Workload) Ratio(c Config) float64 { return w.Value(c) / w.NormalValue }

// Table2Workloads returns the benchmark rows with their memory-time
// fractions. STREAM is pure memory; the NPB fractions follow from the
// per-benchmark roofline densities (package npb) evaluated on the SS node;
// SPEC and Linpack fractions are calibrated to the published ratios.
func Table2Workloads() []Workload {
	node := machine.SpaceSimulatorNode
	// memFrac for a (flops, bytes) kernel on the normal node.
	memFrac := func(flopsPerPt, eff, bytesPerPt float64) float64 {
		tc := node.CPUTime(flopsPerPt, eff)
		tm := node.MemTime(bytesPerPt)
		return tm / (tc + tm)
	}
	return []Workload{
		{Name: "copy", MemFrac: 0.97, NormalValue: 1203.5, Unit: "MB/s"},
		{Name: "add", MemFrac: 0.97, NormalValue: 1237.2, Unit: "MB/s"},
		{Name: "scale", MemFrac: 0.97, NormalValue: 1201.8, Unit: "MB/s"},
		{Name: "triad", MemFrac: 0.97, NormalValue: 1238.2, Unit: "MB/s"},
		{Name: "BT", MemFrac: memFrac(270, 0.6, 1150), NormalValue: 321.2, Unit: "Mop/s"},
		{Name: "SP", MemFrac: memFrac(130, 0.6, 1270), NormalValue: 216.5, Unit: "Mop/s"},
		{Name: "LU", MemFrac: memFrac(155, 0.6, 375), NormalValue: 404.3, Unit: "Mop/s"},
		{Name: "MG", MemFrac: memFrac(18, 0.6, 180), NormalValue: 385.1, Unit: "Mop/s"},
		// CG and FT carry fitted fractions: their measured slow-mem and
		// slow-CPU ratios are inconsistent with a strict two-resource split
		// (underclocking the CPU also slows the caches, which the roofline
		// does not separate), so the fraction splits the difference.
		{Name: "CG", MemFrac: 0.78, NormalValue: 313.1, Unit: "Mop/s"},
		{Name: "FT", MemFrac: 0.618, NormalValue: 351.0, Unit: "Mop/s"},
		{Name: "IS", MemFrac: memFrac(1, 0.3, 35) * 0.62, NormalValue: 27.2, Unit: "Mop/s"},
		{Name: "CINT2000", MemFrac: 0.40, NormalValue: 790, Unit: "SPECint"},
		{Name: "CFP2000", MemFrac: 0.62, NormalValue: 742, Unit: "SPECfp"},
		{Name: "Linpack", MemFrac: 0.27, NormalValue: 3.302, Unit: "Gflop/s"},
	}
}

// Table2Paper holds the measured ratios (slow mem, slow CPU, overclock)
// from the paper, indexed like Table2Workloads, for validation.
var Table2Paper = map[string][3]float64{
	"copy":     {0.63, 0.95, 1.054},
	"add":      {0.61, 0.94, 1.053},
	"scale":    {0.63, 0.95, 1.054},
	"triad":    {0.61, 0.94, 1.053},
	"BT":       {0.635, 0.915, 1.066},
	"SP":       {0.608, 0.924, 1.061},
	"LU":       {0.649, 0.906, 1.057},
	"MG":       {0.601, 0.937, 1.039},
	"CG":       {0.605, 0.875, 1.055},
	"FT":       {0.708, 0.863, 1.097},
	"IS":       {0.779, 0.827, 1.063},
	"CINT2000": {0.83, 0.81, 1.051},
	"CFP2000":  {0.71, 0.87, 1.054},
	"Linpack":  {0.868, 0.788, 1.053},
}

// SPECReport reproduces the Section 3.5 price/performance claim: node cost
// excluding network and racks, dollars per SPECfp, and the break-even price
// for the fastest reported SPECfp system.
type SPECReport struct {
	SPECfp, SPECint     float64
	NodeCostUSD         float64
	DollarsPerSPECfp    float64
	FastestSPECfp       float64
	BreakEvenPriceUSD   float64
	FastestSystem       string
	JulyNodeCostUSD     float64
	JulyDollarsPerSPECf float64
}

// SPEC returns the Section 3.5 figures: SPECfp 742 / SPECint 790 on an $888
// node gives $1.20 per SPECfp; an Itanium2 rx2600 at SPECfp 2119 must cost
// under ~$2500 to match; by July 2003 the node price drop brings the figure
// near $1.00.
func SPEC() SPECReport {
	r := SPECReport{
		SPECfp:  742,
		SPECint: 790,
		// Table 1 node cost minus NIC + switch share ($728): $1646-$758.
		NodeCostUSD:     888,
		FastestSPECfp:   2119,
		FastestSystem:   "HP Integrity rx2600 (Itanium 2 / 1.5 GHz)",
		JulyNodeCostUSD: 888 - 200,
	}
	r.DollarsPerSPECfp = r.NodeCostUSD / r.SPECfp
	r.BreakEvenPriceUSD = r.FastestSPECfp * r.DollarsPerSPECfp
	r.JulyDollarsPerSPECf = r.JulyNodeCostUSD / r.SPECfp
	return r
}
