// Package reliability models Section 2.1 of the paper: component failures
// over the Space Simulator's first nine months, the infant-mortality burst
// found during installation, and SMART-based disk-failure prediction.
//
// Component failure counts are Poisson draws from per-component hazard
// rates; infant mortality is a separate (higher) rate applied during the
// burn-in window. Rates are calibrated so the *expected* counts match the
// paper's observations for a 294-node cluster.
package reliability

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Component identifies a failable part.
type Component string

// The component classes tracked in Section 2.1.
const (
	PowerSupply Component = "power supply"
	DiskDrive   Component = "disk drive"
	Motherboard Component = "motherboard"
	DRAMStick   Component = "DRAM stick"
	Fan         Component = "fan"
	EthernetNIC Component = "ethernet card"
	SwitchPort  Component = "switch port (soft)"
)

// Population returns the number of units of a component in the cluster.
func Population(c Component, nodes int) int {
	switch c {
	case DRAMStick:
		return 2 * nodes
	case SwitchPort:
		return 304
	default:
		return nodes
	}
}

// Rates holds per-unit failure probabilities.
type Rates struct {
	// Install is the probability a unit is found defective during
	// installation and burn-in (infant mortality, including shipping
	// damage: loose cables, unset BIOS, unflashed PXE).
	Install map[Component]float64
	// PerMonth is the steady-state per-unit hazard per month.
	PerMonth map[Component]float64
}

// PaperCalibrated returns rates whose expectations reproduce the Section
// 2.1 counts for 294 nodes: install {3 PSU, 6 disks, 4 boards, 6 DRAM,
// 1 NIC} and nine months {2 PSU, 16 disks, 1 board, 3 DRAM, 1 fan,
// 4 switch ports}. Note the paper's observation that the heat-pipe design
// eliminated CPU-fan failures — the fan rate covers the PSU fan only.
func PaperCalibrated() Rates {
	nodes := 294.0
	months := 9.0
	return Rates{
		Install: map[Component]float64{
			PowerSupply: 3 / nodes,
			DiskDrive:   6 / nodes,
			Motherboard: 4 / nodes,
			DRAMStick:   6 / (2 * nodes),
			EthernetNIC: 1 / nodes,
		},
		PerMonth: map[Component]float64{
			PowerSupply: 2 / nodes / months,
			DiskDrive:   16 / nodes / months,
			Motherboard: 1 / nodes / months,
			DRAMStick:   3 / (2 * nodes) / months,
			Fan:         1 / nodes / months,
			SwitchPort:  4 / 304.0 / months,
		},
	}
}

// PaperObserved holds the counts reported in Section 2.1 for validation
// and reporting.
var PaperObserved = struct {
	Install, NineMonths map[Component]int
}{
	Install: map[Component]int{
		PowerSupply: 3, DiskDrive: 6, Motherboard: 4, DRAMStick: 6, EthernetNIC: 1,
	},
	NineMonths: map[Component]int{
		PowerSupply: 2, DiskDrive: 16, Motherboard: 1, DRAMStick: 3, Fan: 1, SwitchPort: 4,
	},
}

// Event is one simulated failure.
type Event struct {
	Month     float64 // fractional month of occurrence; <0 means install
	Component Component
	Unit      int
	// Predicted marks disk failures that SMART monitoring flagged in
	// advance ("a majority of the drive failures can be predicted").
	Predicted bool
}

// Simulation holds one Monte-Carlo history of the cluster.
type Simulation struct {
	Nodes  int
	Months float64
	Events []Event
}

// The simulated cluster and period: the paper's 294 nodes over its first
// nine months. smartSensitivity is the probability a disk failure is
// preceded by a SMART warning.
const (
	nodes            = 294
	months           = 9
	smartSensitivity = 0.7
)

// Simulate draws one failure history from the seed.
func Simulate(seed int64) *Simulation {
	rng := rand.New(rand.NewSource(seed))
	rates := PaperCalibrated()
	sim := &Simulation{Nodes: nodes, Months: months}
	// Iterate components in sorted order: randomized map order would
	// otherwise consume the RNG stream differently on every run, breaking
	// seed determinism.
	for _, c := range sortedComponents(rates.Install) {
		p := rates.Install[c]
		n := Population(c, nodes)
		for u := 0; u < n; u++ {
			if rng.Float64() < p {
				sim.Events = append(sim.Events, Event{Month: -1, Component: c, Unit: u})
			}
		}
	}
	for _, c := range sortedComponents(rates.PerMonth) {
		hz := rates.PerMonth[c]
		n := Population(c, nodes)
		for u := 0; u < n; u++ {
			// exponential time to failure with the monthly hazard
			tf := rng.ExpFloat64() / hz
			if tf <= months {
				ev := Event{Month: tf, Component: c, Unit: u}
				if c == DiskDrive {
					ev.Predicted = rng.Float64() < smartSensitivity
				}
				sim.Events = append(sim.Events, ev)
			}
		}
	}
	return sim
}

// sortedComponents returns the keys of a rate map in lexical order.
func sortedComponents(m map[Component]float64) []Component {
	out := make([]Component, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SMARTPredictedFraction returns the fraction of operating-period disk
// failures that were predicted.
func (s *Simulation) SMARTPredictedFraction() float64 {
	disks, pred := 0, 0
	for _, e := range s.Events {
		if e.Month >= 0 && e.Component == DiskDrive {
			disks++
			if e.Predicted {
				pred++
			}
		}
	}
	if disks == 0 {
		return 0
	}
	return float64(pred) / float64(disks)
}

// ExpectedCounts returns the calibrated expectations (no sampling noise).
func ExpectedCounts(nodes int, months float64) (install, operating map[Component]float64) {
	rates := PaperCalibrated()
	install = map[Component]float64{}
	operating = map[Component]float64{}
	for c, p := range rates.Install {
		install[c] = p * float64(Population(c, nodes))
	}
	for c, hz := range rates.PerMonth {
		// P(fail by T) = 1 - exp(-hz*T) per unit
		operating[c] = (1 - math.Exp(-hz*months)) * float64(Population(c, nodes))
	}
	return install, operating
}

// String renders an event.
func (e Event) String() string {
	phase := "operating"
	if e.Month < 0 {
		phase = "install"
	}
	return fmt.Sprintf("%s: %s unit %d", phase, e.Component, e.Unit)
}
