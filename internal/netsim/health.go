package netsim

// Fabric health: time-varying fault effects injected by internal/faults.
//
// A Health value is built once, before a run, from the fault schedule and is
// read-only afterwards — every query is a pure function of (link, virtual
// time), so concurrent rank goroutines never race and a run with a given
// schedule is deterministic in virtual time. Two effect classes model the
// Section 2.1 failure log:
//
//   - capacity degradation: a link (typically a host NIC after a partial
//     hardware failure or renegotiation to a lower rate) carries a
//     multiplicative capacity factor over an interval;
//   - port flaps: a soft switch port adds a latency spike to every message
//     entering or leaving the attached host while the flap window is open.

import "math"

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
	linkCap map[resource][]Interval
	portLat map[int][]Interval
}

// NewHealth returns an empty (fully healthy) health map.
func NewHealth() *Health {
	return &Health{
		linkCap: map[resource][]Interval{},
		portLat: map[int][]Interval{},
	}
}

// DegradeLink scales the capacity of one shared link by factor over
// [start, end) of virtual time. Factor must be in (0, 1].
func (h *Health) DegradeLink(kind LinkKind, id int, start, end, factor float64) {
	if factor <= 0 || factor > 1 {
		panic("netsim: degradation factor must be in (0, 1]")
	}
	r := resource{string(kind), id}
	h.linkCap[r] = append(h.linkCap[r], Interval{Start: start, End: end, Value: factor})
}

// DegradeNIC degrades both directions of a host's NIC — the common
// "ethernet card going bad" presentation of Section 2.1.
func (h *Health) DegradeNIC(host int, start, end, factor float64) {
	h.DegradeLink(LinkNICTx, host, start, end, factor)
	h.DegradeLink(LinkNICRx, host, start, end, factor)
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
	out := NewHealth()
	for r, ivs := range h.linkCap {
		for _, iv := range ivs {
			if iv.End <= t0 {
				continue
			}
			out.linkCap[r] = append(out.linkCap[r], Interval{
				Start: math.Max(0, iv.Start-t0), End: iv.End - t0, Value: iv.Value,
			})
		}
	}
	for host, ivs := range h.portLat {
		for _, iv := range ivs {
			if iv.End <= t0 {
				continue
			}
			out.portLat[host] = append(out.portLat[host], Interval{
				Start: math.Max(0, iv.Start-t0), End: iv.End - t0, Value: iv.Value,
			})
		}
	}
	return out
}

// Empty reports whether the health map carries no effects at all.
func (h *Health) Empty() bool {
	return h == nil || (len(h.linkCap) == 0 && len(h.portLat) == 0)
}

// CapFactor returns the capacity multiplier for a link at virtual time t
// (overlapping degradations compound; 1 when healthy). Nil-safe.
func (h *Health) CapFactor(kind LinkKind, id int, t float64) float64 {
	if h == nil {
		return 1
	}
	f := 1.0
	for _, iv := range h.linkCap[resource{string(kind), id}] {
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
// reliability metric surfaced by the fault report.
func (h *Health) DegradedSeconds(horizon float64) (degraded, flapping float64) {
	if h == nil {
		return 0, 0
	}
	clip := func(iv Interval) float64 {
		lo, hi := math.Max(0, iv.Start), math.Min(horizon, iv.End)
		if hi <= lo {
			return 0
		}
		return hi - lo
	}
	for _, ivs := range h.linkCap {
		for _, iv := range ivs {
			degraded += clip(iv)
		}
	}
	for _, ivs := range h.portLat {
		for _, iv := range ivs {
			flapping += clip(iv)
		}
	}
	return degraded, flapping
}

// WithHealth returns a copy of the network with the given health map
// attached. The original network is not modified; a nil health restores a
// perfect fabric.
func (n *Network) WithHealth(h *Health) *Network {
	cp := *n
	cp.Health = h
	return &cp
}

// TransferTimeAt is TransferTime evaluated at virtual time t: a degraded
// NIC at either endpoint caps the payload bandwidth, and a flapping switch
// port at either endpoint adds its latency spike. With no health attached it
// equals TransferTime exactly.
func (n *Network) TransferTimeAt(src, dst int, bytes int64, t float64) float64 {
	if src == dst || n.Health.Empty() {
		return n.TransferTime(src, dst, bytes)
	}
	p := n.Prof
	tt := p.LatencySec + p.PerMsgOverheadSec
	tt += n.Health.PortLatency(src, t) + n.Health.PortLatency(dst, t)
	if p.RendezvousBytes > 0 && bytes >= p.RendezvousBytes {
		tt += p.RendezvousSec
	}
	f := math.Min(n.Health.CapFactor(LinkNICTx, src, t), n.Health.CapFactor(LinkNICRx, dst, t))
	return tt + float64(bytes)*8/(p.PeakBps*f)
}
