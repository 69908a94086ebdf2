package machine

import (
	"spacesim/internal/netsim"
	"spacesim/internal/obs"
)

// Cluster couples a node model, a node count, and a network model — enough
// for the virtual-time message-passing layer to charge both computation and
// communication.
type Cluster struct {
	Name    string
	Nodes   int
	Node    Node
	Net     *netsim.Network
	CostUSD float64
	// Obs, when set, observes every run on this cluster: the message-passing
	// layer records metrics into its registry and — if its tracer is enabled
	// — emits per-rank virtual-time spans. A nil Obs still collects metrics
	// (mp.Run creates a private one); attaching it here is how callers get
	// the data out and how tracing is switched on.
	Obs *obs.Obs
}

// WithObs returns a copy of the cluster with the observation handle
// attached (clusters are passed by value, so this composes with the
// catalog constructors).
func (c Cluster) WithObs(o *obs.Obs) Cluster {
	c.Obs = o
	return c
}

// PeakFlops returns the aggregate theoretical peak.
func (c Cluster) PeakFlops() float64 { return float64(c.Nodes) * c.Node.PeakFlops }

// Info is the machine identity stamped into analysis artifacts so that a
// run-to-run diff can refuse to compare runs modeled on different hardware.
type Info struct {
	Name             string  `json:"name"`
	Nodes            int     `json:"nodes"`
	NodeName         string  `json:"node"`
	PeakFlopsPerNode float64 `json:"peak_flops_per_node"`
	StreamBps        float64 `json:"stream_bps"`
	NetProfile       string  `json:"net_profile"`
	NICBps           float64 `json:"nic_bps"`
	ModuleUplinkBps  float64 `json:"module_uplink_bps"`
	TrunkBps         float64 `json:"trunk_bps"`
	PortsPerModule   int     `json:"ports_per_module"`
	NetEfficiency    float64 `json:"net_efficiency"`
}

// Info summarizes the cluster model.
func (c Cluster) Info() Info {
	i := Info{
		Name:             c.Name,
		Nodes:            c.Nodes,
		NodeName:         c.Node.Name,
		PeakFlopsPerNode: c.Node.PeakFlops,
		StreamBps:        c.Node.StreamBps,
	}
	if c.Net != nil {
		i.NetProfile = c.Net.Prof.Name
		i.NICBps = c.Net.Topo.NICBps
		i.ModuleUplinkBps = c.Net.Topo.ModuleUplinkBps
		i.TrunkBps = c.Net.Topo.TrunkBps
		i.PortsPerModule = c.Net.Topo.PortsPerModule
		i.NetEfficiency = c.Net.Topo.Efficiency
	}
	return i
}

// DollarsPerMflops returns price/performance against a measured aggregate
// rate in flop/s — the paper's headline metric (63.9 cents per Mflop/s for
// Linpack on the SS).
func (c Cluster) DollarsPerMflops(measuredFlops float64) float64 {
	return c.CostUSD / (measuredFlops / 1e6)
}

// SpaceSimulator returns the full 294-node cluster with the given library
// profile (the paper used MPICH for the first Linpack run and LAM for the
// improved one).
func SpaceSimulator(p netsim.Profile) Cluster {
	return Cluster{
		Name:    "Space Simulator",
		Nodes:   294,
		Node:    SpaceSimulatorNode,
		Net:     netsim.MustNew(netsim.SpaceSimulatorTopology(), p),
		CostUSD: 483855,
	}
}

// TreecodeMachine is one row of the historical treecode table (Table 6):
// the modeled per-processor gravity-kernel rate and the fraction of it the
// full parallel treecode sustains (tree build, traversal overhead, and
// network efficiency combined).
type TreecodeMachine struct {
	Year  int
	Site  string
	Name  string
	Procs int
	// KernelMflops is the per-processor gravity micro-kernel rate (Karp
	// variant where the port used it); entries present in Table 5 use the
	// CPU model, others are modeled from clock and FPU character.
	KernelMflops float64
	// TreecodeEff is the sustained fraction of the kernel rate for the
	// full application on this machine's network.
	TreecodeEff float64
	// PaperGflops and PaperMflopsPerProc are the measured values.
	PaperGflops        float64
	PaperMflopsPerProc float64
}

// Gflops returns the modeled aggregate treecode rate.
func (m TreecodeMachine) Gflops() float64 {
	return float64(m.Procs) * m.KernelMflops * m.TreecodeEff / 1e3
}

// MflopsPerProc returns the modeled per-processor treecode rate.
func (m TreecodeMachine) MflopsPerProc() float64 {
	return m.KernelMflops * m.TreecodeEff
}

// Table6Machines is the historical treecode performance table. Kernel rates
// for machines in Table 5 come from the CPU model; efficiencies reflect
// each machine's network generation (tighter interconnects and newer code
// sustain a larger fraction of the kernel rate).
var Table6Machines = []TreecodeMachine{
	{2003, "LANL", "ASCI QB", 3600, Table5CPUs[9].KernelMflops(true), 0.680, 2793, 775.8},
	{2003, "LANL", "Space Simulator", 288, Table5CPUs[7].KernelMflops(true), 0.787, 179.7, 623.9},
	{2002, "NERSC", "IBM SP-3(375/W)", 256, Table5CPUs[3].KernelMflops(true), 0.437, 57.70, 225.0},
	{2002, "LANL", "Green Destiny", 212, Table5CPUs[1].KernelMflops(true), 0.617, 38.9, 183.5},
	{2000, "LANL", "SGI Origin 2000", 64, 300, 0.683, 13.10, 205.0},
	{1998, "LANL", "Avalon", 128, Table5CPUs[0].KernelMflops(true), 0.520, 16.16, 126.0},
	{1996, "LANL", "Loki", 16, 100, 0.800, 1.28, 80.0},
	{1996, "SC '96", "Loki+Hyglac", 32, 100, 0.684, 2.19, 68.4},
	{1996, "Sandia", "ASCI Red", 6800, 100, 0.684, 464.9, 68.4},
	{1995, "JPL", "Cray T3D", 256, 45, 0.690, 7.94, 31.0},
	{1995, "LANL", "TMC CM-5", 512, 40, 0.688, 14.06, 27.5},
	{1993, "Caltech", "Intel Delta", 512, 30, 0.653, 10.02, 19.6},
}
