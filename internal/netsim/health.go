package netsim

// Fabric health: time-varying fault effects injected by internal/faults.
//
// A Health value is built once, before a run, from the fault schedule and is
// read-only afterwards — every query is a pure function of (link, virtual
// time), so concurrent rank goroutines never race and a run with a given
// schedule is deterministic in virtual time. Two effect classes model the
// Section 2.1 failure log:
//
//   - NIC degradation: a host's NIC, both directions (a partial hardware
//     failure or a renegotiation to a lower rate), carries a multiplicative
//     capacity factor over an interval;
//   - port flaps: a soft switch port adds a latency spike to every message
//     entering or leaving the attached host while the flap window is open.

import (
	"math"
	"sort"
)

// Interval is one health effect window in virtual time. Value is a capacity
// multiplier in (0, 1] for degradations, or an added latency in seconds for
// flaps.
type Interval struct {
	Start, End float64
	Value      float64
}

// Health is the time-indexed fault state of a fabric. The zero value (and a
// nil *Health) mean a perfectly healthy network.
type Health struct {
	nicCap  map[int][]Interval
	portLat map[int][]Interval
}

// NewHealth returns an empty (fully healthy) health map.
func NewHealth() *Health {
	return &Health{
		nicCap:  map[int][]Interval{},
		portLat: map[int][]Interval{},
	}
}

// DegradeNIC scales the capacity of both directions of a host's NIC by
// factor over [start, end) of virtual time — the common "ethernet card
// going bad" presentation of Section 2.1. Factor must be in (0, 1].
func (h *Health) DegradeNIC(host int, start, end, factor float64) {
	if factor <= 0 || factor > 1 {
		panic("netsim: degradation factor must be in (0, 1]")
	}
	h.nicCap[host] = append(h.nicCap[host], Interval{Start: start, End: end, Value: factor})
}

// FlapPort adds extraLatency seconds to every message entering or leaving
// host over [start, end) — a soft switch port renegotiating.
func (h *Health) FlapPort(host int, start, end, extraLatency float64) {
	if extraLatency < 0 {
		panic("netsim: flap latency must be >= 0")
	}
	h.portLat[host] = append(h.portLat[host], Interval{Start: start, End: end, Value: extraLatency})
}

// Shift returns a copy of the health map with every interval moved earlier
// by t0 (used to re-base a global fault schedule onto a restarted segment
// whose clocks begin at zero). Intervals ending at or before t0 are dropped.
func (h *Health) Shift(t0 float64) *Health {
	if h == nil {
		return nil
	}
	return &Health{nicCap: shift(h.nicCap, t0), portLat: shift(h.portLat, t0)}
}

func shift(m map[int][]Interval, t0 float64) map[int][]Interval {
	out := map[int][]Interval{}
	for host, ivs := range m {
		for _, iv := range ivs {
			if iv.End <= t0 {
				continue
			}
			out[host] = append(out[host], Interval{
				Start: math.Max(0, iv.Start-t0), End: iv.End - t0, Value: iv.Value,
			})
		}
	}
	return out
}

// Empty reports whether the health map carries no effects at all.
func (h *Health) Empty() bool {
	return h == nil || (len(h.nicCap) == 0 && len(h.portLat) == 0)
}

// CapFactor returns the capacity multiplier of host's NIC at virtual time t
// (overlapping degradations compound; 1 when healthy). Nil-safe.
func (h *Health) CapFactor(host int, t float64) float64 {
	if h == nil {
		return 1
	}
	f := 1.0
	for _, iv := range h.nicCap[host] {
		if t >= iv.Start && t < iv.End {
			f *= iv.Value
		}
	}
	return f
}

// PortLatency returns the extra per-message latency in seconds at host's
// port at virtual time t (overlapping flaps add; 0 when healthy). Nil-safe.
func (h *Health) PortLatency(host int, t float64) float64 {
	if h == nil {
		return 0
	}
	lat := 0.0
	for _, iv := range h.portLat[host] {
		if t >= iv.Start && t < iv.End {
			lat += iv.Value
		}
	}
	return lat
}

// DegradedSeconds returns the total degraded link-seconds and flapping
// port-seconds overlapping [0, horizon) — the "degraded-link seconds"
// reliability metric surfaced by the fault report. A degraded NIC counts
// once per direction.
func (h *Health) DegradedSeconds(horizon float64) (degraded, flapping float64) {
	if h == nil {
		return 0, 0
	}
	return 2 * seconds(h.nicCap, horizon), seconds(h.portLat, horizon)
}

// seconds sums the intervals' overlap with [0, horizon), host by host in
// ascending order so the sum does not depend on map order.
func seconds(m map[int][]Interval, horizon float64) float64 {
	hosts := make([]int, 0, len(m))
	for host := range m {
		hosts = append(hosts, host)
	}
	sort.Ints(hosts)
	sum := 0.0
	for _, host := range hosts {
		for _, iv := range m[host] {
			if lo, hi := math.Max(0, iv.Start), math.Min(horizon, iv.End); hi > lo {
				sum += hi - lo
			}
		}
	}
	return sum
}

// WithHealth returns a copy of the network with the given health map
// attached. The original network is not modified; a nil health restores a
// perfect fabric.
func (n *Network) WithHealth(h *Health) *Network {
	cp := *n
	cp.Health = h
	return &cp
}
