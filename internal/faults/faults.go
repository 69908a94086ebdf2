// Package faults converts the Section 2.1 failure statistics
// (internal/reliability) into deterministic, seeded virtual-time fault
// schedules for simulated cluster runs, closing the loop the paper lived
// through: the same hardware hazard rates that filled the failure log now
// crash ranks, degrade NICs, flap switch ports, and corrupt checkpoint
// stripes *inside* a run, and the checkpoint–restart driver has to survive
// them.
//
// Time scaling: the paper's hazards are per component-month, while a
// simulated treecode run spans virtual seconds. Options.Accel compresses
// exposure — one virtual second counts as Accel component-months — so a
// run experiences in seconds the faults a production cluster sees in
// months. The hazard mapping is otherwise untouched, which keeps relative
// frequencies (disks ≫ power supplies ≫ motherboards) faithful to the log.
//
// Component → effect mapping:
//
//	power supply, motherboard, DRAM stick, fan  → rank crash (fail-stop)
//	ethernet card                               → NIC capacity degradation
//	switch port (soft)                          → port latency flaps
//	disk drive                                  → checkpoint stripe corruption
//
// A Schedule is a value, immutable once drawn. The restart driver keeps the
// set of faults that have fired and derives from the schedule, that set and
// a segment's clock offset the pieces the runtime consumes: an mp.FaultPlan
// for crashes, a netsim.Health for fabric effects, and the per-rank disk
// faults the checkpoint writer applies.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"spacesim/internal/reliability"
)

// Kind classifies a fault's effect on the run.
type Kind string

// Fault kinds, from fatal to recoverable.
const (
	RankCrash   Kind = "rank-crash"
	LinkDegrade Kind = "link-degrade"
	PortFlap    Kind = "port-flap"
	DiskCorrupt Kind = "disk-corrupt"
)

// DefaultAccel is the default exposure compression: component-months of
// hazard per virtual second. At 50, a 16-rank 10-virtual-second run sees
// roughly the crash exposure of a 16-node month.
const DefaultAccel = 50

// Fault is one scheduled event in global virtual time (seconds since the
// start of the whole job, not of any restart segment).
type Fault struct {
	ID   int
	Kind Kind
	// Rank is the affected rank (== host: placement is 1:1).
	Rank int
	// Start is when the fault strikes; End closes interval effects
	// (degrade, flap). For instantaneous faults End == Start.
	Start, End float64
	// Severity is the capacity factor in (0,1] for LinkDegrade and the
	// added per-message latency in seconds for PortFlap; unused otherwise.
	Severity float64
	// Cause names the failed component, from the reliability catalog.
	Cause string
}

func (f Fault) String() string {
	switch f.Kind {
	case LinkDegrade:
		return fmt.Sprintf("#%d %s rank %d [%.4g, %.4g)s x%.2f (%s)",
			f.ID, f.Kind, f.Rank, f.Start, f.End, f.Severity, f.Cause)
	case PortFlap:
		return fmt.Sprintf("#%d %s rank %d [%.4g, %.4g)s +%.3gms (%s)",
			f.ID, f.Kind, f.Rank, f.Start, f.End, f.Severity*1e3, f.Cause)
	default:
		return fmt.Sprintf("#%d %s rank %d at %.4gs (%s)", f.ID, f.Kind, f.Rank, f.Start, f.Cause)
	}
}

// Options configures a schedule draw.
type Options struct {
	// Ranks is the number of participating ranks (hosts 0..Ranks-1).
	Ranks int
	// Horizon is the exposure window in virtual seconds; faults striking
	// at or past it are not scheduled.
	Horizon float64
	// Seed fixes the draw; equal Options yield equal Schedules.
	Seed int64
	// Accel is component-months of hazard per virtual second
	// (DefaultAccel when zero).
	Accel float64
	// Rates overrides the hazard table (PaperCalibrated when nil).
	Rates *reliability.Rates
}

// Schedule is a fixed, ordered fault timeline for one job.
type Schedule struct {
	Ranks   int
	Horizon float64
	Accel   float64
	Seed    int64
	Faults  []Fault
}

// componentUnits fixes the per-rank draw order (and unit multiplicity), so
// a schedule is a pure function of Options.
var componentUnits = []struct {
	c reliability.Component
	n int
}{
	{reliability.PowerSupply, 1},
	{reliability.Motherboard, 1},
	{reliability.DRAMStick, 2},
	{reliability.Fan, 1},
	{reliability.EthernetNIC, 1},
	{reliability.SwitchPort, 1},
	{reliability.DiskDrive, 1},
}

// New draws a fault schedule: for every rank and component unit, an
// exponential time-to-failure under the accelerated hazard; strikes inside
// the horizon become faults. Interval lengths and severities come from the
// same seeded stream, so the whole schedule is deterministic per seed.
func New(opt Options) Schedule {
	if opt.Accel == 0 {
		opt.Accel = DefaultAccel
	}
	rates := defaultRates(opt.Rates)
	rng := rand.New(rand.NewSource(opt.Seed))
	s := Schedule{Ranks: opt.Ranks, Horizon: opt.Horizon, Accel: opt.Accel, Seed: opt.Seed}
	// Hazards are per month; opt.Accel months elapse per virtual second.
	monthsPerSec := opt.Accel
	for rank := 0; rank < opt.Ranks; rank++ {
		for _, cu := range componentUnits {
			hz := rates.PerMonth[cu.c] * monthsPerSec // per virtual second
			for u := 0; u < cu.n; u++ {
				if hz <= 0 {
					continue
				}
				tf := rng.ExpFloat64() / hz
				if tf >= opt.Horizon {
					continue
				}
				f := Fault{ID: len(s.Faults), Rank: rank, Start: tf, End: tf, Cause: string(cu.c)}
				switch cu.c {
				case reliability.EthernetNIC:
					// A failing NIC renegotiates down; it stays slow until
					// "repaired" a fraction of the run later.
					f.Kind = LinkDegrade
					f.Severity = 0.1 + 0.4*rng.Float64()
					f.End = tf + (0.05+0.25*rng.Float64())*opt.Horizon
				case reliability.SwitchPort:
					// Soft port: bursts of millisecond-scale latency spikes.
					f.Kind = PortFlap
					f.Severity = (0.5 + 4.5*rng.Float64()) * 1e-3
					f.End = tf + (0.02+0.1*rng.Float64())*opt.Horizon
				case reliability.DiskDrive:
					f.Kind = DiskCorrupt
				default:
					f.Kind = RankCrash
				}
				s.Faults = append(s.Faults, f)
			}
		}
	}
	sort.SliceStable(s.Faults, func(i, j int) bool { return s.Faults[i].Start < s.Faults[j].Start })
	return s
}

// defaultRates resolves the hazard table. The paper's nine months saw no
// in-service NIC death (only one at install), so PaperCalibrated carries no
// PerMonth entry for it; since degrading NICs are exactly the fault class
// the ISSUE's Section 2.1 narrative cares about, the default table
// extrapolates the install observation to roughly one bad card per nine
// cluster-months. An explicit Rates override is used untouched.
func defaultRates(override *reliability.Rates) reliability.Rates {
	if override != nil {
		return *override
	}
	rates := reliability.PaperCalibrated()
	pm := make(map[reliability.Component]float64, len(rates.PerMonth)+1)
	for c, hz := range rates.PerMonth {
		pm[c] = hz
	}
	if _, ok := pm[reliability.EthernetNIC]; !ok {
		pm[reliability.EthernetNIC] = 1.0 / (294 * 9)
	}
	rates.PerMonth = pm
	return rates
}

// Count returns the number of scheduled faults of one kind.
func (s Schedule) Count(k Kind) int {
	n := 0
	for _, f := range s.Faults {
		if f.Kind == k {
			n++
		}
	}
	return n
}

// ExpectedCrashes returns the analytic expectation of RankCrash faults for
// the options (the Poisson mean the Monte-Carlo draw fluctuates around).
func ExpectedCrashes(opt Options) float64 {
	if opt.Accel == 0 {
		opt.Accel = DefaultAccel
	}
	rates := defaultRates(opt.Rates)
	var mean float64
	for _, cu := range componentUnits {
		switch cu.c {
		case reliability.EthernetNIC, reliability.SwitchPort, reliability.DiskDrive:
			continue
		}
		hz := rates.PerMonth[cu.c] * opt.Accel
		perUnit := 1 - math.Exp(-hz*opt.Horizon)
		mean += perUnit * float64(cu.n*opt.Ranks)
	}
	return mean
}
