// Package machine models the compute hardware of the paper: the Shuttle XPC
// node of Table 1, Loki's Pentium Pro node of Table 7, the processor zoo of
// the gravity micro-kernel (Table 5), and the historical machines of the
// treecode performance table (Table 6).
//
// Two model layers live here:
//
//   - CPU: an instruction-level model of the gravitational inner loop — a
//     pipelined floating-point stream plus a non-pipelined sqrt/divide
//     dependency chain — which is exactly the structure the Karp
//     reciprocal-square-root optimization attacks (Table 5).
//   - Node: a two-resource roofline model (sustained flops + sustained
//     memory bandwidth) used to charge virtual time for benchmark kernels
//     and to reproduce the BIOS clock-scaling study of Table 2.
package machine

// Flop accounting conventions for the gravity micro-kernel. The interaction
// count convention (38 flops per body-body interaction, with the reciprocal
// sqrt counted as part of the kernel) follows the treecode literature, so
// Mflop/s figures are comparable across the libm and Karp variants even
// though the Karp variant executes more raw instructions.
const (
	// KernelFlops is the number of accounted flops per interaction.
	KernelFlops = 38
	// KarpExtraFlops is the extra pipelined add/multiply work of the Karp
	// reciprocal sqrt (table lookup + Chebyshev interpolation + two
	// Newton-Raphson iterations) replacing the sqrt/divide chain.
	KarpExtraFlops = 24
)

// CPU is the instruction-level processor model for the gravity kernel.
//
// EffIPC is the sustained pipelined flop issue rate (flops/cycle) the core
// reaches in this loop, including any SIMD vectorization the compiler
// applies (the icc/SSE2 entry of Table 5). SqrtLatencyCycles is the exposed
// latency of the serial reciprocal-square-root dependency chain (divide +
// square root, not pipelined on any of these processors).
type CPU struct {
	Name              string
	ClockHz           float64
	EffIPC            float64
	SqrtLatencyCycles float64
}

// CyclesPerInteraction returns the modeled cycles per body-body interaction.
// With karp=true the sqrt chain is replaced by extra pipelined flops.
func (c CPU) CyclesPerInteraction(karp bool) float64 {
	if karp {
		return (KernelFlops + KarpExtraFlops) / c.EffIPC
	}
	return KernelFlops/c.EffIPC + c.SqrtLatencyCycles
}

// KernelMflops returns the modeled micro-kernel rate in Mflop/s under the
// accounting convention above (useful flops per interaction / time).
func (c CPU) KernelMflops(karp bool) float64 {
	return KernelFlops * c.ClockHz / c.CyclesPerInteraction(karp) / 1e6
}

// Table5CPUs is the processor list of Table 5 with calibrated model
// parameters. EffIPC and SqrtLatencyCycles are set from the architectural
// character of each part (x87 vs. SIMD issue width, divider/sqrt latency);
// the resulting Mflop/s reproduce the measured table.
var Table5CPUs = []CPU{
	{Name: "533-MHz Alpha EV56", ClockHz: 533e6, EffIPC: 0.742, SqrtLatencyCycles: 214.6},
	{Name: "667-MHz Transmeta TM5600", ClockHz: 667e6, EffIPC: 0.728, SqrtLatencyCycles: 144.8},
	{Name: "933-MHz Transmeta TM5800", ClockHz: 933e6, EffIPC: 0.653, SqrtLatencyCycles: 128.9},
	{Name: "375-MHz IBM Power3", ClockHz: 375e6, EffIPC: 2.24, SqrtLatencyCycles: 30.7},
	{Name: "1133-MHz Intel P3", ClockHz: 1133e6, EffIPC: 0.856, SqrtLatencyCycles: 102.9},
	{Name: "1200-MHz AMD Athlon MP", ClockHz: 1200e6, EffIPC: 0.835, SqrtLatencyCycles: 84.5},
	{Name: "2200-MHz Intel P4", ClockHz: 2200e6, EffIPC: 0.486, SqrtLatencyCycles: 46.9},
	{Name: "2530-MHz Intel P4", ClockHz: 2530e6, EffIPC: 0.512, SqrtLatencyCycles: 49.2},
	{Name: "1800-MHz AMD Athlon XP", ClockHz: 1800e6, EffIPC: 0.862, SqrtLatencyCycles: 68.0},
	{Name: "1250-MHz Alpha 21264C", ClockHz: 1250e6, EffIPC: 1.49, SqrtLatencyCycles: 25.3},
	{Name: "2530-MHz Intel P4 (icc)", ClockHz: 2530e6, EffIPC: 0.875, SqrtLatencyCycles: 38.8},
}

// Table5Paper holds the measured Mflop/s pairs (libm, Karp) from the paper,
// indexed like Table5CPUs, for validation and reporting.
var Table5Paper = [][2]float64{
	{76.2, 242.2},
	{128.7, 297.5},
	{189.5, 373.2},
	{298.5, 514.4},
	{292.2, 594.9},
	{350.7, 614.0},
	{668.0, 655.5},
	{779.3, 792.6},
	{609.9, 951.9},
	{935.2, 1141.0},
	{1170.0, 1357.0},
}
