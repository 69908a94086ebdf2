package machine

import "fmt"

// Node is the two-resource roofline model of one cluster node: a sustained
// floating-point rate and a sustained memory bandwidth, plus local disk.
// Kernels are charged Time(flops, bytes) = flops/(eff*peak) + bytes/membw:
// the no-overlap decomposition that the paper's Table 2 clock-scaling
// experiment probes by independently underclocking CPU and memory.
type Node struct {
	Name string
	// ClockHz is the core clock; PeakFlops is the DP peak (flops/cycle x
	// clock). For the SS node: 2 flops/cycle x 2.53 GHz = 5.06 Gflop/s.
	ClockHz   float64
	PeakFlops float64
	// StreamBps is the sustained memory bandwidth in bytes/s (STREAM triad
	// scale; Table 2: 1238 MB/s for DDR333 with the shared frame buffer).
	StreamBps float64
	// DiskBps is the local-disk streaming rate (Maxtor 4K080H4: ~28 MB/s).
	DiskBps float64
	// MemoryBytes is installed DRAM.
	MemoryBytes int64
}

// CPUTime returns seconds for the given flop count at efficiency eff
// (fraction of peak a tuned kernel sustains; ATLAS DGEMM on the P4 reaches
// ~0.65-0.70).
func (n Node) CPUTime(flops, eff float64) float64 {
	if eff <= 0 || eff > 1 {
		panic(fmt.Sprintf("machine: efficiency %v out of (0,1]", eff))
	}
	return flops / (eff * n.PeakFlops)
}

// MemTime returns seconds to stream the given bytes through main memory.
func (n Node) MemTime(bytes float64) float64 { return bytes / n.StreamBps }

// Time is the no-overlap roofline charge: compute plus memory time.
func (n Node) Time(flops, eff, bytes float64) float64 {
	return n.CPUTime(flops, eff) + n.MemTime(bytes)
}

// DiskTime returns seconds to stream bytes to or from the local disk.
func (n Node) DiskTime(bytes float64) float64 { return bytes / n.DiskBps }

// SpaceSimulatorNode is the Shuttle XPC SS51G node of Table 1: P4/2.53 GHz,
// 1 GB DDR333 (10% of bandwidth shared with the on-board video), 80 GB
// 5400 rpm disk.
var SpaceSimulatorNode = Node{
	Name:        "Space Simulator node (Shuttle SS51G, P4/2.53)",
	ClockHz:     2.53e9,
	PeakFlops:   5.06e9,
	StreamBps:   1238.2e6, // Table 2 triad, MB/s
	DiskBps:     28e6,
	MemoryBytes: 1 << 30,
}
