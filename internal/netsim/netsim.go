// Package netsim models the Space Simulator's Gigabit Ethernet fabric: 3Com
// 3c996B-T NICs on a 32-bit/33 MHz PCI bus, a Foundry FastIron 1500 and a
// FastIron 800 joined by a fiber trunk (Figure 1 of the paper).
//
// The model has two layers:
//
//  1. A point-to-point transfer-time model (Hockney alpha-beta, plus a
//     rendezvous penalty for libraries that use one) parameterized per
//     message-passing library, reproducing the NetPIPE family of Figure 2.
//  2. A contention model: every flow crosses a set of shared resources (NIC
//     transmit/receive, switch-module backplane ports, the inter-switch
//     trunk), and concurrent flows receive max-min fair shares, reproducing
//     the Section 3.1 backplane and trunk measurements.
package netsim

import (
	"fmt"
	"math"
)

// Topology describes the physical fabric.
type Topology struct {
	// Nodes is the number of attached hosts.
	Nodes int
	// PortsPerModule is the size of one non-blocking switch module.
	PortsPerModule int
	// ModulesSwitchA is the number of modules in the first switch; node
	// ports fill switch A before overflowing onto switch B.
	ModulesSwitchA int
	// ModuleUplinkBps is the usable capacity from one module to another
	// within the same switch chassis, in bits per second.
	ModuleUplinkBps float64
	// TrunkBps is the usable capacity of the inter-switch trunk.
	TrunkBps float64
	// NICBps is the line rate of a host NIC.
	NICBps float64
	// Efficiency derates backplane and trunk capacity for framing and
	// scheduling overhead. The paper measured ~6000 Mb/s of a nominal
	// 8 Gb/s module interconnect, i.e. 0.75.
	Efficiency float64
}

// SpaceSimulatorTopology returns the fabric of Table 1 / Figure 1: 294 nodes
// on a FastIron 1500 (15 x 16-port modules) trunked to a FastIron 800.
func SpaceSimulatorTopology() Topology {
	return Topology{
		Nodes:           294,
		PortsPerModule:  16,
		ModulesSwitchA:  15,
		ModuleUplinkBps: 8e9,
		TrunkBps:        8e9,
		NICBps:          1e9,
		Efficiency:      0.75,
	}
}

// Module returns the switch-module index of a node (modules are numbered
// consecutively across both switches).
func (t Topology) Module(node int) int { return node / t.PortsPerModule }

// Switch returns 0 for the first chassis, 1 for the second.
func (t Topology) Switch(node int) int {
	if t.Module(node) < t.ModulesSwitchA {
		return 0
	}
	return 1
}

// Profile characterizes one message-passing library's point-to-point cost,
// per the NetPIPE measurements of Figure 2.
type Profile struct {
	Name string
	// LatencySec is the small-message half-round-trip latency.
	LatencySec float64
	// PeakBps is the asymptotic large-message bandwidth in bits/s.
	PeakBps float64
	// PerMsgOverheadSec is added to every message (software stack cost).
	PerMsgOverheadSec float64
	// RendezvousBytes is the eager/rendezvous switch point; messages at or
	// above it pay an extra RendezvousSec handshake. Zero disables it.
	RendezvousBytes int64
	RendezvousSec   float64
}

// Library profiles calibrated to Figure 2: plain TCP peaks at 779 Mb/s with
// 79 us latency; LAM -O approaches TCP; stock LAM is slightly slower;
// mpich-1.2.5 trails at large messages.
var (
	ProfileTCP = Profile{
		Name: "TCP", LatencySec: 79e-6, PeakBps: 779e6,
	}
	ProfileLAMO = Profile{
		Name: "LAM 6.5.9 -O", LatencySec: 83e-6, PeakBps: 760e6,
		PerMsgOverheadSec: 1e-6,
		RendezvousBytes:   64 * 1024, RendezvousSec: 25e-6,
	}
	ProfileLAM = Profile{
		Name: "LAM 6.5.9", LatencySec: 83e-6, PeakBps: 720e6,
		PerMsgOverheadSec: 3e-6,
		RendezvousBytes:   64 * 1024, RendezvousSec: 40e-6,
	}
	ProfileMPICH1 = Profile{
		Name: "mpich-1.2.5", LatencySec: 87e-6, PeakBps: 560e6,
		PerMsgOverheadSec: 4e-6,
		RendezvousBytes:   128 * 1024, RendezvousSec: 60e-6,
	}
)

// TransferTime returns the uncontended one-way time in seconds to move the
// given payload between two distinct hosts under this profile.
func (p Profile) TransferTime(bytes int64) float64 {
	t := p.LatencySec + p.PerMsgOverheadSec
	if p.RendezvousBytes > 0 && bytes >= p.RendezvousBytes {
		t += p.RendezvousSec
	}
	return t + float64(bytes)*8/p.PeakBps
}

// Bandwidth returns the effective NetPIPE bandwidth in bits/s for a message
// of the given size: size / one-way time.
func (p Profile) Bandwidth(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) * 8 / p.TransferTime(bytes)
}

// Network couples a topology with a library profile and answers timing and
// contention queries for the message-passing layer. Health, when non-nil,
// carries time-indexed fault effects (see WithHealth) that Transfer
// consults; FairShare assumes a perfect fabric.
type Network struct {
	Topo   Topology
	Prof   Profile
	Health *Health
}

// New constructs a network model; it validates the topology.
func New(t Topology, p Profile) (*Network, error) {
	if t.Nodes <= 0 || t.PortsPerModule <= 0 {
		return nil, fmt.Errorf("netsim: topology needs nodes and ports per module, got %+v", t)
	}
	if t.Efficiency <= 0 || t.Efficiency > 1 {
		return nil, fmt.Errorf("netsim: efficiency must be in (0,1], got %v", t.Efficiency)
	}
	if p.PeakBps <= 0 {
		return nil, fmt.Errorf("netsim: profile %q has no peak bandwidth", p.Name)
	}
	return &Network{Topo: t, Prof: p}, nil
}

// MustNew is New for known-good static configurations.
func MustNew(t Topology, p Profile) *Network {
	n, err := New(t, p)
	if err != nil {
		panic(err)
	}
	return n
}

// Transfer prices a message from src to dst sent at virtual time t:
// latency is the profile's latency, the rendezvous handshake at or above
// RendezvousBytes and a flapping port's spike at either end; wire is the
// time its bytes take at bps (0: the profile's peak), that rate cut by the
// weaker NIC's CapFactor. The sender's clock pays PerMsgOverheadSec. A
// self-send is a memory copy at 10x the NIC rate, with no latency.
func (n *Network) Transfer(src, dst int, bytes int64, bps, t float64) (latency, wire float64) {
	if src == dst {
		return 0, float64(bytes) * 8 / (10 * n.Topo.NICBps)
	}
	p, h := n.Prof, n.Health
	latency = p.LatencySec + h.PortLatency(src, t) + h.PortLatency(dst, t)
	if p.RendezvousBytes > 0 && bytes >= p.RendezvousBytes {
		latency += p.RendezvousSec
	}
	if bps == 0 {
		bps = p.PeakBps
	}
	return latency, float64(bytes) * 8 / (bps * math.Min(h.CapFactor(src, t), h.CapFactor(dst, t)))
}

// Flow is a unidirectional stream between two hosts, used by the contention
// solver.
type Flow struct {
	Src, Dst int
}

// Link identifies one shared capacity in the fabric: a host NIC transmit
// or receive port, a switch-module backplane connection (ingress "up" to
// the chassis fabric or egress "down" from it), or the inter-switch trunk.
// CapacityBps is the usable rate (already derated by Topology.Efficiency
// for backplane and trunk links).
type Link struct {
	Kind        LinkKind
	ID          int // host for NICs, module for backplane links, 0 for the trunk
	CapacityBps float64
}

// LinkKind names a class of shared fabric resource.
type LinkKind string

// Link classes, from the host outward.
const (
	LinkNICTx      LinkKind = "nic-tx"
	LinkNICRx      LinkKind = "nic-rx"
	LinkModuleUp   LinkKind = "module-up"
	LinkModuleDown LinkKind = "module-down"
	LinkTrunk      LinkKind = "trunk"
)

// Name returns a stable human-readable identifier ("module-up 3", "trunk").
func (l Link) Name() string {
	if l.Kind == LinkTrunk {
		return string(l.Kind)
	}
	return fmt.Sprintf("%s %d", l.Kind, l.ID)
}

// key is the map identity of a link (capacity excluded).
func (l Link) key() resource { return resource{string(l.Kind), l.ID} }

// PathLinks returns the shared links a src->dst flow crosses, in order from
// source to destination: the NICs always; the module backplane up/down pair
// when the endpoints sit on different switch modules; the trunk when they
// sit on different chassis. A self-send crosses nothing. This is the single
// source of truth for byte accounting: the FairShare contention solver and
// the link-utilization analysis both consume it.
func (t Topology) PathLinks(src, dst int) []Link {
	if src == dst {
		return nil
	}
	path := []Link{
		{Kind: LinkNICTx, ID: src, CapacityBps: t.NICBps},
		{Kind: LinkNICRx, ID: dst, CapacityBps: t.NICBps},
	}
	ms, md := t.Module(src), t.Module(dst)
	if ms != md {
		path = append(path,
			Link{Kind: LinkModuleUp, ID: ms, CapacityBps: t.ModuleUplinkBps * t.Efficiency},
			Link{Kind: LinkModuleDown, ID: md, CapacityBps: t.ModuleUplinkBps * t.Efficiency})
	}
	if t.Switch(src) != t.Switch(dst) {
		path = append(path, Link{Kind: LinkTrunk, CapacityBps: t.TrunkBps * t.Efficiency})
	}
	return path
}

// resource identifies one shared capacity in the fabric.
type resource struct {
	kind string
	id   int
}

// FairShare computes max-min fair rates (bits/s) for a set of concurrent
// flows using progressive filling over the PathLinks of every flow.
func (n *Network) FairShare(flows []Flow) []float64 {
	t := n.Topo
	caps := map[resource]float64{}
	paths := make([][]resource, len(flows))
	for i, f := range flows {
		if f.Src == f.Dst {
			continue // local copies do not touch the fabric
		}
		links := t.PathLinks(f.Src, f.Dst)
		path := make([]resource, len(links))
		for j, l := range links {
			path[j] = l.key()
			if _, ok := caps[path[j]]; !ok {
				caps[path[j]] = l.CapacityBps
			}
		}
		paths[i] = path
	}

	rates := make([]float64, len(flows))
	frozen := make([]bool, len(flows))
	remaining := map[resource]float64{}
	for r, c := range caps {
		remaining[r] = c
	}
	for {
		// count unfrozen flows per resource
		counts := map[resource]int{}
		active := 0
		for i := range flows {
			if frozen[i] || paths[i] == nil {
				continue
			}
			active++
			for _, r := range paths[i] {
				counts[r]++
			}
		}
		if active == 0 {
			break
		}
		// find the tightest resource
		minShare := math.Inf(1)
		for r, c := range counts {
			share := remaining[r] / float64(c)
			if share < minShare {
				minShare = share
			}
		}
		if math.IsInf(minShare, 1) {
			break
		}
		// freeze flows on saturated resources at minShare
		progressed := false
		for i := range flows {
			if frozen[i] || paths[i] == nil {
				continue
			}
			bottleneck := false
			for _, r := range paths[i] {
				if remaining[r]/float64(counts[r])-minShare < 1e-9*minShare {
					bottleneck = true
					break
				}
			}
			if bottleneck {
				rates[i] = minShare
				frozen[i] = true
				for _, r := range paths[i] {
					remaining[r] -= minShare
					if remaining[r] < 0 {
						remaining[r] = 0
					}
				}
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	// Local flows move at memory speed.
	for i, f := range flows {
		if f.Src == f.Dst {
			rates[i] = 10 * t.NICBps
		}
	}
	return rates
}

// AggregateBandwidth returns the sum of fair-share rates for the flow set,
// in bits/s — the quantity the paper's switch-backplane experiment reports.
func (n *Network) AggregateBandwidth(flows []Flow) float64 {
	total := 0.0
	for _, r := range n.FairShare(flows) {
		total += r
	}
	return total
}

// HypercubePairs returns the flow set of the paper's switch-probe program:
// simultaneous messages between pairs of processors along hypercube
// dimension d (partner = rank XOR 2^d), for ranks [0, nprocs).
func HypercubePairs(nprocs, dim int) []Flow {
	var flows []Flow
	bit := 1 << uint(dim)
	for r := 0; r < nprocs; r++ {
		partner := r ^ bit
		if partner < nprocs && r < partner {
			flows = append(flows, Flow{Src: r, Dst: partner})
			flows = append(flows, Flow{Src: partner, Dst: r})
		}
	}
	return flows
}

// CrossModuleFlows returns 16 one-way flows from every port of module a to
// the corresponding port of module b — the "16 processors on one module
// sending to 16 on another" experiment (Section 3.1).
func (t Topology) CrossModuleFlows(a, b int) []Flow {
	flows := make([]Flow, 0, t.PortsPerModule)
	for i := 0; i < t.PortsPerModule; i++ {
		src := a*t.PortsPerModule + i
		dst := b*t.PortsPerModule + i
		if src < t.Nodes && dst < t.Nodes {
			flows = append(flows, Flow{Src: src, Dst: dst})
		}
	}
	return flows
}
