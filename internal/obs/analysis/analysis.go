// Package analysis turns one observed run's structured telemetry (the
// internal/obs event log) into a diagnosis: where the virtual seconds went.
//
// It computes:
//
//   - The critical path through the per-rank span + send/recv dependency
//     graph: the single causal chain of compute, send/transfer, and
//     collective segments whose total equals the run's virtual makespan.
//     The walk runs backward from the rank that finishes last; every
//     blocking receive is an edge back to the sender's send time.
//   - Per-phase parallel efficiency and load imbalance in virtual time
//     (max/mean rank time in phase, idle fraction).
//   - Link and switch-module utilization timelines from the netsim byte
//     accounting (the same Topology.PathLinks the contention solver uses).
//   - Distribution summaries from the registry's histograms (message
//     latency, collective sizes, interaction-list lengths).
//
// Analysis is strictly read-only on telemetry: it runs after mp.Run has
// returned and never perturbs a clock, so a run analyzed and a run ignored
// are bit-identical.
package analysis

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"spacesim/internal/machine"
	"spacesim/internal/obs"
	"spacesim/internal/obs/ledger"
)

// SchemaVersion stamps ANALYSIS.json.
//
//	1 — critical path, phases, links, histograms, rank metrics, faults
//	2 — adds the optional live block (sampler series dump + progress)
//	3 — drops the live block; a v2 file still reads (the key is ignored)
const SchemaVersion = 3

// Critical-path segment categories.
const (
	CatCompute    = "compute"
	CatSend       = "send" // point-to-point sender overhead + wire transfer
	CatWait       = "wait" // blocked receive not explained by a recorded send
	CatCollective = "collective"
	CatDisk       = "disk"
	CatOther      = "other" // virtual time advanced outside any leaf span
)

// Options tunes the analysis.
type Options struct {
	// TimelineBins is the number of bins in each link-utilization timeline
	// (default 64).
	TimelineBins int
	// NICLinkLimit bounds the per-host NIC links included in the report; a
	// run with more ranks reports only module and trunk links (default 32).
	NICLinkLimit int
}

func (o Options) withDefaults() Options {
	if o.TimelineBins <= 0 {
		o.TimelineBins = 64
	}
	if o.NICLinkLimit <= 0 {
		o.NICLinkLimit = 32
	}
	return o
}

// Report is the machine-readable analysis artifact (ANALYSIS.json).
type Report struct {
	SchemaVersion int          `json:"schema_version"`
	Machine       machine.Info `json:"machine"`
	Ranks         int          `json:"ranks"`
	// MakespanSec is the run's virtual wall-clock: max over ranks of their
	// final clocks.
	MakespanSec float64 `json:"makespan_sec"`
	// ParallelEfficiency is the share of the machine's time spent computing:
	// the ranks' charged compute seconds summed, over ranks × makespan.
	// Compute and wait time are disjoint parts of a rank's clock, so it never
	// exceeds 1 − IdleFraction.
	ParallelEfficiency float64 `json:"parallel_efficiency"`
	// IdleFraction is total wait time over total rank time.
	IdleFraction float64      `json:"idle_fraction"`
	CriticalPath CriticalPath `json:"critical_path"`
	Phases       []PhaseStats `json:"phases,omitempty"`
	Links        []LinkStats  `json:"links,omitempty"`

	Histograms  map[string]obs.HistogramSnapshot `json:"histograms,omitempty"`
	RankMetrics []obs.RankMetrics                `json:"rank_metrics,omitempty"`
	Counters    map[string]int64                 `json:"counters,omitempty"`
	Gauges      map[string]float64               `json:"gauges,omitempty"`

	// Faults summarizes fault injection and checkpoint recovery when the
	// run was driven by core.RunRecovered; nil for fault-free runs. It is
	// attached by the driver (the telemetry Analyze consumes covers only
	// the completing segment).
	Faults *FaultSummary `json:"faults,omitempty"`

	// Provenance records the binary and host that produced the report
	// (go version, VCS revision, hostname, GOMAXPROCS) plus — when the
	// driver runs with a ledger — the run's config digest, which keys the
	// report to its comparable ledger history; `ssbench diff` compares only
	// two reports that carry the same one.
	Provenance *ledger.Provenance `json:"provenance,omitempty"`
}

// FaultSummary is the fault-injection and recovery record of a run
// (ANALYSIS.json "faults"). Times are global virtual seconds.
type FaultSummary struct {
	// Attempts counts run segments (1 = never crashed); Crashes the rank
	// crashes that fired, with their ranks and global virtual times.
	Attempts      int       `json:"attempts"`
	Crashes       int       `json:"crashes"`
	CrashRanks    []int     `json:"crash_ranks,omitempty"`
	CrashTimesSec []float64 `json:"crash_times_sec,omitempty"`
	// RestoredSteps are the checkpoint steps each restart rolled back to
	// (0 = initial conditions); ReplayedSteps totals re-run steps.
	RestoredSteps []int `json:"restored_steps,omitempty"`
	ReplayedSteps int   `json:"replayed_steps"`
	// LostVirtualSec is discarded progress; TotalVirtualSec the machine
	// cost summed over every segment including replay.
	LostVirtualSec  float64 `json:"lost_virtual_sec"`
	TotalVirtualSec float64 `json:"total_virtual_sec"`
	// DegradedLinkSec / FlappingPortSec are the schedule's fabric-fault
	// exposure.
	DegradedLinkSec float64 `json:"degraded_link_sec"`
	FlappingPortSec float64 `json:"flapping_port_sec"`
	// CheckpointWrites counts completed checkpoints; CheckpointSec is the
	// virtual disk time spent writing them; CorruptStripes the checkpoint
	// sets rejected during recovery scans.
	CheckpointWrites int     `json:"checkpoint_writes"`
	CheckpointSec    float64 `json:"checkpoint_sec"`
	CorruptStripes   int     `json:"corrupt_stripes"`
	// RecoveredBitIdentical, when set, records the outcome of a
	// verification pass against an uninterrupted twin run.
	RecoveredBitIdentical *bool `json:"recovered_bit_identical,omitempty"`
}

// CriticalPath is the longest causal chain of the run. Its segments tile
// virtual time [0, makespan] exactly: local activity on some rank, or a
// message transfer hopping between ranks.
type CriticalPath struct {
	TotalSec   float64            `json:"total_sec"`
	Hops       int                `json:"hops"` // cross-rank transfer edges
	ByCategory map[string]float64 `json:"by_category"`
	ByPhase    map[string]float64 `json:"by_phase"`
	Segments   []PathSegment      `json:"segments,omitempty"`
}

// PathSegment is one piece of the critical path. For transfer edges
// (Transfer true) Rank is the sender, To the receiver, and [T0, T1] spans
// send-begin to arrival; local segments live entirely on Rank.
type PathSegment struct {
	Rank     int     `json:"rank"`
	T0       float64 `json:"t0"`
	T1       float64 `json:"t1"`
	Cat      string  `json:"cat"`
	Phase    string  `json:"phase,omitempty"`
	Transfer bool    `json:"transfer,omitempty"`
	To       int     `json:"to,omitempty"`
	Bytes    int64   `json:"bytes,omitempty"`
}

// Dur returns the segment duration.
func (s PathSegment) Dur() float64 { return s.T1 - s.T0 }

// PhaseStats aggregates one named phase ("step", "decompose", "walk",
// "tree-build", ...) across ranks, in virtual time.
type PhaseStats struct {
	Name string `json:"name"`
	// Count is the number of phase spans summed over all ranks.
	Count int `json:"count"`
	// TotalSec sums the phase time of every rank; MeanSec and MaxSec are
	// the per-rank totals averaged over all ranks / maximized (MaxRank).
	TotalSec float64 `json:"total_sec"`
	MeanSec  float64 `json:"mean_sec"`
	MaxSec   float64 `json:"max_sec"`
	MaxRank  int     `json:"max_rank"`
	// Imbalance is max/mean (1.0 = perfectly balanced); Efficiency is
	// mean/max — the fraction of the slowest rank's phase time that the
	// average rank also spends, i.e. parallel efficiency of the phase.
	Imbalance  float64 `json:"imbalance"`
	Efficiency float64 `json:"efficiency"`
	// IdleFraction is the share of the phase's total time spent blocked in
	// receives (leaf wait spans inside the phase).
	IdleFraction float64 `json:"idle_fraction"`
}

// LinkStats is the byte accounting and utilization of one shared fabric
// link over the run, binned into a timeline.
type LinkStats struct {
	Name        string  `json:"name"`
	CapacityBps float64 `json:"capacity_bps"`
	Bytes       int64   `json:"bytes"`
	// MeanUtil is bytes*8/(makespan*capacity); PeakUtil the maximum over
	// timeline bins; BusyFraction the share of bins with any traffic.
	MeanUtil     float64 `json:"mean_util"`
	PeakUtil     float64 `json:"peak_util"`
	BusyFraction float64 `json:"busy_fraction"`
	// Timeline is per-bin utilization in [0, ~1] (bin width =
	// makespan/len). Transfers are spread uniformly over their
	// depart->arrive interval, so latency-dominated messages appear as low
	// sustained rates rather than bursts.
	Timeline []float64 `json:"timeline,omitempty"`
}

// interval is a named time range on one rank.
type interval struct {
	name   string
	t0, t1 float64
}

// rankData is the per-rank telemetry reorganized for the walks.
type rankData struct {
	id     int
	clock  float64
	leaves []obs.SpanEvent // leaf spans (compute/disk/send/wait), sorted by T0
	waits  []obs.RecvEvent // blocking receives, sorted by Arrive
	phases []interval      // cat=="phase" spans
	colls  []interval      // cat=="collective" spans
}

// leafSpan reports whether a span is one of the leaf-level clock charges
// emitted by the message-passing layer (as opposed to wrapper spans:
// phases, collectives, or caller-defined groupings).
func leafSpan(s obs.SpanEvent) bool {
	switch {
	case s.Cat == "compute" && s.Name == "compute":
		return true
	case s.Cat == "disk" && s.Name == "disk":
		return true
	case s.Cat == "comm" && (s.Name == "send" || s.Name == "wait"):
		return true
	}
	return false
}

// leafCat maps a leaf span to its critical-path category.
func leafCat(s obs.SpanEvent) string {
	switch s.Cat {
	case "compute":
		return CatCompute
	case "disk":
		return CatDisk
	}
	if s.Name == "send" {
		return CatSend
	}
	return CatWait
}

// Analyze consumes the structured telemetry of one completed run observed
// by o and returns the analysis report. The Obs must have event retention
// enabled (Obs.EnableEvents before the run) and must have observed exactly
// one mp.Run invocation — spans from several runs share one virtual
// timeline and cannot be told apart.
func Analyze(o *obs.Obs, cl machine.Cluster, opt Options) (*Report, error) {
	if o == nil {
		return nil, errors.New("analysis: nil Obs")
	}
	if o.Events == nil {
		return nil, errors.New("analysis: event retention is off — call Obs.EnableEvents() before the run")
	}
	opt = opt.withDefaults()
	metrics := o.RankMetrics()
	events := o.Events.Ranks()
	if len(events) == 0 || len(metrics) == 0 {
		return nil, errors.New("analysis: no ranks observed")
	}
	metByRank := make(map[int]obs.RankMetrics, len(metrics))
	for _, m := range metrics {
		metByRank[m.Rank] = m
	}

	ranks := make([]rankData, len(events))
	for i, re := range events {
		m, ok := metByRank[re.Rank]
		if !ok {
			return nil, fmt.Errorf("analysis: rank %d has events but no metrics", re.Rank)
		}
		rd := rankData{id: re.Rank, clock: m.Clock}
		for _, s := range re.Spans {
			switch {
			case leafSpan(s):
				rd.leaves = append(rd.leaves, s)
			case s.Cat == "phase":
				rd.phases = append(rd.phases, interval{s.Name, s.T0, s.T1})
			case s.Cat == "collective":
				rd.colls = append(rd.colls, interval{s.Name, s.T0, s.T1})
			}
		}
		for _, rv := range re.Recvs {
			if rv.Waited {
				rd.waits = append(rd.waits, rv)
			}
		}
		sort.SliceStable(rd.leaves, func(a, b int) bool { return rd.leaves[a].T0 < rd.leaves[b].T0 })
		sort.SliceStable(rd.waits, func(a, b int) bool { return rd.waits[a].Arrive < rd.waits[b].Arrive })
		ranks[i] = rd
	}

	var makespan float64
	start := 0
	var sumClock, sumWait, sumCompute float64
	for i, rd := range ranks {
		if rd.clock > makespan {
			makespan = rd.clock
			start = i
		}
		sumClock += rd.clock
		sumWait += metByRank[rd.id].WaitSec
		sumCompute += metByRank[rd.id].ComputeSec
	}

	prov := ledger.Prov()
	rep := &Report{
		SchemaVersion: SchemaVersion,
		Machine:       cl.Info(),
		Ranks:         len(ranks),
		MakespanSec:   makespan,
		RankMetrics:   metrics,
		Histograms:    o.Reg.HistogramSnapshots(),
		Provenance:    &prov,
	}
	rep.Counters, rep.Gauges = o.Reg.Snapshot()
	if makespan > 0 {
		rep.ParallelEfficiency = sumCompute / (float64(len(ranks)) * makespan)
	}
	if sumClock > 0 {
		rep.IdleFraction = sumWait / sumClock
	}
	rep.CriticalPath = criticalPath(ranks, start, makespan)
	rep.Phases = phaseStats(ranks)
	if cl.Net != nil {
		rep.Links = linkStats(events, cl, makespan, opt)
	}
	return rep, nil
}

// byRank indexes rankData by rank id (ids may be sparse in principle).
func byRank(ranks []rankData) map[int]*rankData {
	m := make(map[int]*rankData, len(ranks))
	for i := range ranks {
		m[ranks[i].id] = &ranks[i]
	}
	return m
}

// criticalPath walks backward from (start rank, makespan): everything since
// the rank's last blocking receive is local work, and the receive itself is
// an edge back to its sender's send time. The resulting segments tile
// [0, makespan] exactly, so the path total equals the makespan.
func criticalPath(ranks []rankData, start int, makespan float64) CriticalPath {
	cp := CriticalPath{
		TotalSec:   makespan,
		ByCategory: map[string]float64{},
		ByPhase:    map[string]float64{},
	}
	idx := byRank(ranks)
	cur := ranks[start].id
	t := makespan
	// Every iteration either terminates or strictly decreases t (a blocked
	// receive's send time precedes its arrival), so the walk visits at most
	// one edge per recorded wait; the cap is a defensive backstop.
	for iter := 0; t > 0 && iter < 1<<26; iter++ {
		rd := idx[cur]
		// Latest blocking receive at or before t.
		wi := sort.Search(len(rd.waits), func(i int) bool { return rd.waits[i].Arrive > t }) - 1
		segStart := 0.0
		if wi >= 0 {
			segStart = rd.waits[wi].Arrive
		}
		appendLocal(&cp, rd, segStart, t)
		if wi < 0 {
			break
		}
		w := rd.waits[wi]
		edge := PathSegment{
			Rank: w.Src, To: cur, Transfer: true, Bytes: w.Bytes,
			T0: w.SentAt, T1: w.Arrive,
			Cat:   CatSend,
			Phase: phaseAt(rd, w.Arrive),
		}
		if insideAny(rd.colls, w.Arrive) || insideAny(idx[w.Src].colls, w.SentAt) {
			edge.Cat = CatCollective
		}
		addSegment(&cp, edge)
		cur = w.Src
		t = w.SentAt
	}
	// The walk built the path backward; present it in time order.
	for i, j := 0, len(cp.Segments)-1; i < j; i, j = i+1, j-1 {
		cp.Segments[i], cp.Segments[j] = cp.Segments[j], cp.Segments[i]
	}
	for _, s := range cp.Segments {
		if s.Transfer {
			cp.Hops++
		}
	}
	return cp
}

// appendLocal tiles (a, b] on one rank with categorized segments: leaf
// spans clipped to the window, gaps as CatOther. Communication leaves
// inside a collective span are attributed to the collective.
func appendLocal(cp *CriticalPath, rd *rankData, a, b float64) {
	if b <= a {
		return
	}
	cursor := b
	// Walk leaves backward from b so segments append in backward-path
	// order (the whole path is reversed at the end).
	lo := sort.Search(len(rd.leaves), func(i int) bool { return rd.leaves[i].T0 >= b })
	for i := lo - 1; i >= 0 && cursor > a; i-- {
		s := rd.leaves[i]
		if s.T1 <= a {
			// Leaves are sorted by T0; earlier leaves can still end after
			// this one, but leaf spans never overlap (each is a distinct
			// clock advance), so once fully before the window we are done.
			break
		}
		t0, t1 := math.Max(s.T0, a), math.Min(s.T1, cursor)
		if t1 < cursor {
			addSegment(cp, PathSegment{Rank: rd.id, T0: t1, T1: cursor, Cat: CatOther, Phase: phaseAt(rd, cursor)})
		}
		if t1 > t0 {
			cat := leafCat(s)
			if cat != CatCompute && cat != CatDisk && insideAny(rd.colls, (t0+t1)/2) {
				cat = CatCollective
			}
			addSegment(cp, PathSegment{Rank: rd.id, T0: t0, T1: t1, Cat: cat, Phase: phaseAt(rd, (t0+t1)/2)})
		}
		cursor = math.Min(cursor, t0)
	}
	if cursor > a {
		addSegment(cp, PathSegment{Rank: rd.id, T0: a, T1: cursor, Cat: CatOther, Phase: phaseAt(rd, cursor)})
	}
}

// addSegment accumulates a segment into the category/phase totals,
// coalescing with the previous one when contiguous and alike (keeps the
// segment list compact: one entry per activity burst, not per Charge call).
func addSegment(cp *CriticalPath, seg PathSegment) {
	if seg.T1 <= seg.T0 {
		return
	}
	cp.ByCategory[seg.Cat] += seg.Dur()
	cp.ByPhase[seg.Phase] += seg.Dur()
	if n := len(cp.Segments); n > 0 && !seg.Transfer {
		prev := &cp.Segments[n-1]
		// Backward append: seg precedes prev in time.
		if !prev.Transfer && prev.Rank == seg.Rank && prev.Cat == seg.Cat &&
			prev.Phase == seg.Phase && math.Abs(prev.T0-seg.T1) < 1e-12*math.Max(1, math.Abs(prev.T0)) {
			prev.T0 = seg.T0
			return
		}
	}
	cp.Segments = append(cp.Segments, seg)
}

// insideAny reports whether t lies in any of the intervals.
func insideAny(ivs []interval, t float64) bool {
	for _, iv := range ivs {
		if iv.t0 <= t && t <= iv.t1 {
			return true
		}
	}
	return false
}

// phaseAt returns the innermost phase containing t on the rank (the
// enclosing phase span that started last), or "" outside every phase.
func phaseAt(rd *rankData, t float64) string {
	best := ""
	bestT0 := math.Inf(-1)
	for _, iv := range rd.phases {
		if iv.t0 <= t && t <= iv.t1 && iv.t0 >= bestT0 {
			best, bestT0 = iv.name, iv.t0
		}
	}
	return best
}

// phaseStats aggregates phase spans across ranks.
func phaseStats(ranks []rankData) []PhaseStats {
	type acc struct {
		perRank []float64 // indexed like ranks, so sums and ties repeat
		wait    float64
		count   int
	}
	accs := map[string]*acc{}
	get := func(name string) *acc {
		a, ok := accs[name]
		if !ok {
			a = &acc{perRank: make([]float64, len(ranks))}
			accs[name] = a
		}
		return a
	}
	for i, rd := range ranks {
		for _, iv := range rd.phases {
			a := get(iv.name)
			a.perRank[i] += iv.t1 - iv.t0
			a.count++
		}
		// Attribute each blocking wait to its innermost enclosing phase.
		for _, s := range rd.leaves {
			if leafCat(s) != CatWait {
				continue
			}
			if ph := phaseAt(&rd, (s.T0+s.T1)/2); ph != "" {
				get(ph).wait += s.T1 - s.T0
			}
		}
	}
	n := float64(len(ranks))
	out := make([]PhaseStats, 0, len(accs))
	for name, a := range accs {
		ps := PhaseStats{Name: name, Count: a.count}
		for i, d := range a.perRank {
			ps.TotalSec += d
			if d > ps.MaxSec {
				ps.MaxSec = d
				ps.MaxRank = ranks[i].id
			}
		}
		ps.MeanSec = ps.TotalSec / n
		// A phase that costs no virtual time anywhere (core's tree-merge on
		// one rank: the branch exchange sends nothing and charges nothing)
		// is balanced.
		ps.Imbalance = 1
		if ps.MeanSec > 0 {
			ps.Imbalance = ps.MaxSec / ps.MeanSec
		}
		if ps.MaxSec > 0 {
			ps.Efficiency = ps.MeanSec / ps.MaxSec
		}
		if ps.TotalSec > 0 {
			ps.IdleFraction = a.wait / ps.TotalSec
		}
		out = append(out, ps)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalSec != out[j].TotalSec {
			return out[i].TotalSec > out[j].TotalSec
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// linkStats bins every recorded transfer onto the links of its
// Topology.PathLinks route. Module and trunk links are always reported;
// per-host NIC links only for runs of at most opt.NICLinkLimit ranks.
func linkStats(events []*obs.RankEvents, cl machine.Cluster, makespan float64, opt Options) []LinkStats {
	if makespan <= 0 {
		return nil
	}
	topo := cl.Net.Topo
	includeNIC := len(events) <= opt.NICLinkLimit
	bins := opt.TimelineBins
	binDur := makespan / float64(bins)
	type la struct {
		cap   float64
		bytes int64
		bits  []float64
	}
	links := map[string]*la{}
	for _, re := range events {
		for _, s := range re.Sends {
			if s.Dst == re.Rank {
				continue // self-sends never touch the fabric
			}
			for _, l := range topo.PathLinks(re.Rank, s.Dst) {
				if !includeNIC && (l.Kind == "nic-tx" || l.Kind == "nic-rx") {
					continue
				}
				key := l.Name()
				a, ok := links[key]
				if !ok {
					a = &la{cap: l.CapacityBps, bits: make([]float64, bins)}
					links[key] = a
				}
				a.bytes += s.Bytes
				spread(a.bits, s.Depart, s.Arrive, float64(s.Bytes)*8, makespan)
			}
		}
	}
	out := make([]LinkStats, 0, len(links))
	for name, a := range links {
		ls := LinkStats{Name: name, CapacityBps: a.cap, Bytes: a.bytes}
		if a.cap > 0 {
			ls.MeanUtil = float64(a.bytes) * 8 / (makespan * a.cap)
			ls.Timeline = make([]float64, bins)
			busy := 0
			for i, b := range a.bits {
				u := b / (binDur * a.cap)
				ls.Timeline[i] = u
				if u > ls.PeakUtil {
					ls.PeakUtil = u
				}
				if b > 0 {
					busy++
				}
			}
			ls.BusyFraction = float64(busy) / float64(bins)
		}
		out = append(out, ls)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// spread distributes bits uniformly over [t0, t1] into the bins covering
// [0, makespan]; a zero-length interval lands entirely in t0's bin.
func spread(bits []float64, t0, t1, total, makespan float64) {
	nb := len(bits)
	binDur := makespan / float64(nb)
	clampBin := func(i int) int {
		if i < 0 {
			return 0
		}
		if i >= nb {
			return nb - 1
		}
		return i
	}
	if t1 <= t0 {
		bits[clampBin(int(t0/binDur))] += total
		return
	}
	b0, b1 := clampBin(int(t0/binDur)), clampBin(int(t1/binDur))
	rate := total / (t1 - t0)
	for b := b0; b <= b1; b++ {
		lo := math.Max(t0, float64(b)*binDur)
		hi := math.Min(t1, float64(b+1)*binDur)
		if hi > lo {
			bits[b] += rate * (hi - lo)
		}
	}
}
