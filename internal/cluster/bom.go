// Package cluster reproduces the procurement-side tables of the paper: the
// Space Simulator bill of materials (Table 1), Loki's 1996 bill (Table 7),
// the power budget constraint of Section 2, the price/performance headline
// figures, and the Moore's-law comparisons of the conclusions (Section 5).
package cluster

import (
	"fmt"
	"strings"
)

// LineItem is one row of a bill of materials.
type LineItem struct {
	Qty         int
	UnitUSD     float64
	Description string
	// LumpUSD is used for unpriced bulk rows (cables, shelving); when
	// nonzero it overrides Qty*UnitUSD.
	LumpUSD float64
}

// Ext returns the extended (total) price of the row.
func (li LineItem) Ext() float64 {
	if li.LumpUSD != 0 {
		return li.LumpUSD
	}
	return float64(li.Qty) * li.UnitUSD
}

// BOM is a machine's bill of materials.
type BOM struct {
	Name  string
	Year  int
	Nodes int
	// PeakFlopsPerNode is the theoretical peak of one node.
	PeakFlopsPerNode float64
	Items            []LineItem
	// NetworkItems flags which item indices are network (NIC + switch)
	// costs, for the Table 1 footnote ("44% ... Network Interface Cards
	// and Ethernet switches").
	NetworkItems []int
	// DiskGBPerNode and RAMMBPerNode feed the Moore's-law ratios.
	DiskGBPerNode float64
	RAMMBPerNode  float64
	DiskCostUSD   float64 // per node
	RAMCostUSD    float64 // per node
}

// Total returns the summed extended prices.
func (b BOM) Total() float64 {
	t := 0.0
	for _, li := range b.Items {
		t += li.Ext()
	}
	return t
}

// PerNode returns the average cost per node.
func (b BOM) PerNode() float64 { return b.Total() / float64(b.Nodes) }

// NetworkShare returns the per-node network cost and its fraction of the
// per-node total.
func (b BOM) NetworkShare() (usd, frac float64) {
	t := 0.0
	for _, i := range b.NetworkItems {
		t += b.Items[i].Ext()
	}
	usd = t / float64(b.Nodes)
	return usd, usd / b.PerNode()
}

// Render prints the BOM in the paper's table layout.
func (b BOM) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (%d)\n", b.Name, b.Year)
	for _, li := range b.Items {
		if li.LumpUSD != 0 {
			fmt.Fprintf(&sb, "%5s %7s %10.0f  %s\n", "", "", li.Ext(), li.Description)
			continue
		}
		fmt.Fprintf(&sb, "%5d %7.0f %10.0f  %s\n", li.Qty, li.UnitUSD, li.Ext(), li.Description)
	}
	fmt.Fprintf(&sb, "Total $%.0f   $%.0f per node   %.2f Gflop/s peak per node\n",
		b.Total(), b.PerNode(), b.PeakFlopsPerNode/1e9)
	return sb.String()
}

// SpaceSimulatorBOM is Table 1 (September 2002).
func SpaceSimulatorBOM() BOM {
	return BOM{
		Name:             "Space Simulator",
		Year:             2002,
		Nodes:            294,
		PeakFlopsPerNode: 5.06e9,
		Items: []LineItem{
			{Qty: 294, UnitUSD: 280, Description: "Shuttle SS51G mini system (bare)"},
			{Qty: 294, UnitUSD: 254, Description: "Intel P4/2.53GHz, 533MHz FSB, 512k cache"},
			{Qty: 588, UnitUSD: 118, Description: "512Mb DDR333 SDRAM (1024Mb per node)"},
			{Qty: 294, UnitUSD: 95, Description: "3com 3c996B-T Gigabit Ethernet PCI card"},
			{Qty: 294, UnitUSD: 83, Description: "Maxtor 4K080H4 80Gb 5400rpm Hard Disk"},
			{Qty: 294, UnitUSD: 35, Description: "Assembly Labor/Extended Warranty"},
			{LumpUSD: 4000, Description: "Cat6 Ethernet cables"},
			{LumpUSD: 3300, Description: "Wire shelving/switch rack"},
			{LumpUSD: 1378, Description: "Power strips"},
			{Qty: 1, UnitUSD: 186175, Description: "Foundry FastIron 1500+800, 304 Gigabit ports"},
		},
		NetworkItems:  []int{3, 9},
		DiskGBPerNode: 80,
		RAMMBPerNode:  1024,
		DiskCostUSD:   83,
		RAMCostUSD:    236,
	}
}

// LokiBOM is Table 7 (September 1996).
func LokiBOM() BOM {
	return BOM{
		Name:             "Loki",
		Year:             1996,
		Nodes:            16,
		PeakFlopsPerNode: 200e6,
		Items: []LineItem{
			{Qty: 16, UnitUSD: 595, Description: "Intel Pentium Pro 200 Mhz CPU/256k cache"},
			{Qty: 16, UnitUSD: 15, Description: "Heat Sink and Fan"},
			{Qty: 16, UnitUSD: 295, Description: "Intel VS440FX (Venus) motherboard"},
			{Qty: 64, UnitUSD: 235, Description: "8x36 60ns parity FPM SIMMS (128 Mb per node)"},
			{Qty: 16, UnitUSD: 359, Description: "Quantum Fireball 3240 Mbyte IDE Hard Drive"},
			{Qty: 16, UnitUSD: 85, Description: "D-Link DFE-500TX 100 Mb Fast Ethernet PCI Card"},
			{Qty: 16, UnitUSD: 129, Description: "SMC EtherPower 10/100 Fast Ethernet PCI Card"},
			{Qty: 16, UnitUSD: 59, Description: "S3 Trio-64 1Mb PCI Video Card"},
			{Qty: 16, UnitUSD: 119, Description: "ATX Case"},
			{Qty: 2, UnitUSD: 4794, Description: "3Com SuperStack II Switch 3000, 8-port Fast Ethernet"},
			{LumpUSD: 255, Description: "Ethernet cables"},
		},
		NetworkItems:  []int{5, 6, 9},
		DiskGBPerNode: 3.24,
		RAMMBPerNode:  128,
		DiskCostUSD:   359,
		RAMCostUSD:    940, // 4 x 235
	}
}

// PowerBudget models the Section 2 constraint: available cooling limited
// the cluster to about 35 kW.
type PowerBudget struct {
	NodeWatts   float64
	SwitchWatts float64
	Nodes       int
	LimitWatts  float64
}

// SpaceSimulatorPower returns the design-point budget: ~110 W per Shuttle
// node plus the switches, against the 35 kW room limit.
func SpaceSimulatorPower() PowerBudget {
	return PowerBudget{NodeWatts: 110, SwitchWatts: 2400, Nodes: 294, LimitWatts: 35000}
}

// TotalWatts returns the modeled dissipation.
func (p PowerBudget) TotalWatts() float64 {
	return float64(p.Nodes)*p.NodeWatts + p.SwitchWatts
}

// MaxNodes returns how many nodes the room could power.
func (p PowerBudget) MaxNodes() int {
	return int((p.LimitWatts - p.SwitchWatts) / p.NodeWatts)
}
