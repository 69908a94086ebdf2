package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"spacesim/internal/core"
	"spacesim/internal/htree"
	"spacesim/internal/key"
	"spacesim/internal/machine"
	"spacesim/internal/mp"
	"spacesim/internal/obs"
	"spacesim/internal/vec"
)

// span is one timed interval at a layer boundary, on both clocks. Spans of
// one force evaluation share Eval; Parent is the ID of the step span that
// caused a phase span (0 for a step span).
type span struct {
	ID        int     `json:"id"`
	Parent    int     `json:"parent"`
	Eval      int     `json:"eval"`
	Name      string  `json:"name"`
	Rank      int     `json:"rank"`
	HostStart float64 `json:"host_start_s"`
	HostEnd   float64 `json:"host_end_s"`
	VirtStart float64 `json:"virtual_start_s"`
	VirtEnd   float64 `json:"virtual_end_s"`
}

// Span names: a step, and the phases that tile it together with its own
// self time. The phase names are the layers' public entry points.
const (
	spanStep      = "step"
	spanDecompose = "decompose"
	spanBuild     = "build"
	spanForces    = "forces"
	spanIntegrate = "integrate"
)

var phaseNames = []string{spanDecompose, spanBuild, spanForces, spanIntegrate}

// rankTrace is one rank's span list. Only the owning rank appends during
// the run; the lists are merged after mp.RunWith returns.
type rankTrace struct {
	rank  int
	t0    time.Time
	spans []span
}

// begin opens a span and returns its index in the rank's list.
func (t *rankTrace) begin(name string, eval, parent int, clock float64) int {
	t.spans = append(t.spans, span{
		ID: t.rank<<20 | (len(t.spans) + 1), Parent: parent, Eval: eval, Name: name, Rank: t.rank,
		HostStart: time.Since(t.t0).Seconds(), VirtStart: clock,
	})
	return len(t.spans) - 1
}

func (t *rankTrace) end(i int, clock float64) {
	t.spans[i].HostEnd = time.Since(t.t0).Seconds()
	t.spans[i].VirtEnd = clock
}

// tracedResult is what the traced driver hands back.
type tracedResult struct {
	spans    []span
	wallS    float64
	err      error
	energies []core.Energies
	// First-evaluation figures, for the agreement check against core.Run.
	firstInteractions int64
	firstFetches      int64
	firstClock        float64 // rank 0's clock once the first evaluation is reduced
}

// tracedNBody mirrors core.Run's loop with the public calls — Decompose,
// BuildDistributed, ComputeForces, kick/drift — inside mp.RunWith. Each
// phase ends in r.Barrier() and a span boundary, so on every rank the
// phases tile the step in host time and in virtual time. The barriers are
// the tracing overhead; end-to-end metrics never come from this driver.
func tracedNBody(w workload, cl machine.Cluster, ics []core.Body, steps int) tracedResult {
	opt := w.options()
	traces := make([]rankTrace, w.Procs)
	res := tracedResult{energies: make([]core.Energies, steps+1)}
	t0 := time.Now()
	st := mp.RunWith(cl, w.Procs, w.runOptions(), func(r *mp.Rank) {
		tr := &traces[r.ID()]
		tr.rank, tr.t0 = r.ID(), t0
		ropt := opt
		ropt.BuildArena = &htree.Arena{}

		n, p := len(ics), r.Size()
		local := append([]core.Body(nil), ics[n*r.ID()/p:n*(r.ID()+1)/p]...)
		var acc []vec.V3
		var pot []float64

		// phase runs fn as a child span of the step and closes it after a
		// barrier, so the next phase starts from a common boundary.
		phase := func(name string, eval, parent int, fn func()) {
			i := tr.begin(name, eval, parent, r.Clock())
			fn()
			r.Barrier()
			tr.end(i, r.Clock())
		}
		// evaluate is core.Run's eval closure with one span per public call.
		evaluate := func(eval, parent int) core.TraversalStats {
			var splitters []key.K
			var boxLo vec.V3
			var boxSize float64
			var dt *core.DTree
			var ts core.TraversalStats
			phase(spanDecompose, eval, parent, func() {
				local, splitters, boxLo, boxSize = core.Decompose(r, local)
			})
			phase(spanBuild, eval, parent, func() {
				dt = core.BuildDistributed(r, local, splitters, boxLo, boxSize, ropt)
			})
			phase(spanForces, eval, parent, func() {
				acc, pot, ts = dt.ComputeForces(local)
				for i := range local {
					local[i].Work = ts.PerBody[i]
				}
			})
			return ts
		}
		// reduce repeats the collectives core.Run issues after an
		// evaluation (work totals, imbalance, diagnostics). They are the
		// step's self time.
		reduce := func(eval int, ts core.TraversalStats) {
			sums := r.Allreduce([]float64{
				float64(ts.BodyInteractions + ts.CellInteractions), ts.Flops, float64(ts.Fetches),
			}, mp.OpSum)
			r.AllreduceScalar(ts.Flops, mp.OpMax)
			e := diagnostics(r, local, pot)
			if r.ID() == 0 {
				res.energies[eval] = e
				if eval == 0 {
					res.firstInteractions, res.firstFetches = int64(sums[0]), int64(sums[2])
					res.firstClock = r.Clock()
				}
			}
		}

		s0 := tr.begin(spanStep, 0, 0, r.Clock())
		ts := evaluate(0, tr.spans[s0].ID)
		reduce(0, ts)
		r.Barrier()
		tr.end(s0, r.Clock())
		for s := 1; s <= steps; s++ {
			si := tr.begin(spanStep, s, 0, r.Clock())
			parent := tr.spans[si].ID
			phase(spanIntegrate, s, parent, func() {
				for i := range local {
					local[i].Vel = local[i].Vel.AddScaled(opt.DT/2, acc[i])
					local[i].Pos = local[i].Pos.AddScaled(opt.DT, local[i].Vel)
				}
				r.Charge(float64(12*len(local)), 0.5, float64(96*len(local)))
			})
			ts := evaluate(s, parent)
			phase(spanIntegrate, s, parent, func() {
				for i := range local {
					local[i].Vel = local[i].Vel.AddScaled(opt.DT/2, acc[i])
				}
				r.Charge(float64(6*len(local)), 0.5, float64(48*len(local)))
			})
			reduce(s, ts)
			r.Barrier()
			tr.end(si, r.Clock())
		}
	})
	res.wallS = time.Since(t0).Seconds()
	res.err = st.Err
	for i := range traces {
		res.spans = append(res.spans, traces[i].spans...)
	}
	return res
}

// diagnostics reduces the conservation quantities the way core.Run does
// (the tree potential counts each pair twice, so U = sum(m*pot)/2).
func diagnostics(r *mp.Rank, local []core.Body, pot []float64) core.Energies {
	var ke, pe float64
	var mom, ang vec.V3
	for i := range local {
		m := local[i].Mass
		ke += 0.5 * m * local[i].Vel.Norm2()
		pe += 0.5 * m * pot[i]
		mom = mom.AddScaled(m, local[i].Vel)
		ang = ang.Add(local[i].Pos.Cross(local[i].Vel).Scale(m))
	}
	out := r.Allreduce([]float64{ke, pe, mom[0], mom[1], mom[2], ang[0], ang[1], ang[2]}, mp.OpSum)
	return core.Energies{
		Kinetic: out[0], Potential: out[1],
		Momentum: vec.V3{out[2], out[3], out[4]}, AngMom: vec.V3{out[5], out[6], out[7]},
	}
}

// evalBudget is one force evaluation's step attributed to its phases.
// Host times are world-level: a phase's host time is the moment the last
// rank left it minus the moment the last rank left the previous phase, so
// phases and self tile the step exactly. A phase's virtual time is the
// largest clock advance any rank made inside it.
type evalBudget struct {
	Eval      int
	HostS     float64
	VirtS     float64
	PhaseHost map[string]float64
	PhaseVirt map[string]float64
	SelfHostS float64
}

// budgets attributes every traced evaluation. Spans must come from one
// tracedNBody run: every rank records the same phase sequence.
func budgets(spans []span) ([]evalBudget, error) {
	type slot struct{ eval, seq int }
	steps := map[int][]span{}   // eval -> step spans, one per rank
	phases := map[slot][]span{} // (eval, position in the step) -> spans, one per rank
	names := map[slot]string{}  // the phase at that position
	nextSeq := map[[2]int]int{} // (rank, eval) -> phases seen so far
	for _, s := range spans {   // per rank, spans are in start order
		if s.Name == spanStep {
			steps[s.Eval] = append(steps[s.Eval], s)
			continue
		}
		rk := [2]int{s.Rank, s.Eval}
		k := slot{s.Eval, nextSeq[rk]}
		nextSeq[rk]++
		if prev, ok := names[k]; ok && prev != s.Name {
			return nil, fmt.Errorf("eval %d phase %d is %q on one rank and %q on rank %d", s.Eval, k.seq, prev, s.Name, s.Rank)
		}
		names[k] = s.Name
		phases[k] = append(phases[k], s)
	}
	lastOut := func(ss []span) float64 {
		m := ss[0].HostEnd
		for _, s := range ss[1:] {
			if s.HostEnd > m {
				m = s.HostEnd
			}
		}
		return m
	}
	maxAdvance := func(ss []span) float64 {
		m := 0.0
		for _, s := range ss {
			if d := s.VirtEnd - s.VirtStart; d > m {
				m = d
			}
		}
		return m
	}
	evals := make([]int, 0, len(steps))
	for e := range steps {
		evals = append(evals, e)
	}
	sort.Ints(evals)
	var out []evalBudget
	boundary := 0.0
	for i, e := range evals {
		ss := steps[e]
		if i == 0 { // the run starts when its first rank does
			boundary = ss[0].HostStart
			for _, s := range ss[1:] {
				if s.HostStart < boundary {
					boundary = s.HostStart
				}
			}
		}
		b := evalBudget{Eval: e, PhaseHost: map[string]float64{}, PhaseVirt: map[string]float64{}}
		start := boundary
		for seq := 0; ; seq++ {
			ps, ok := phases[slot{e, seq}]
			if !ok {
				break
			}
			if len(ps) != len(ss) {
				return nil, fmt.Errorf("eval %d phase %d has %d spans for %d ranks", e, seq, len(ps), len(ss))
			}
			left := lastOut(ps)
			b.PhaseHost[names[slot{e, seq}]] += left - boundary
			b.PhaseVirt[names[slot{e, seq}]] += maxAdvance(ps)
			boundary = left
		}
		end := lastOut(ss)
		b.SelfHostS = end - boundary
		b.HostS = end - start
		b.VirtS = maxAdvance(ss)
		boundary = end
		out = append(out, b)
	}
	return out, nil
}

// budgetMetrics turns the per-evaluation budgets into the core.* span
// metrics. The five *_host_s figures are means over the steps (the first
// evaluation, which is cold and has no integrate phase, is reported on its
// own), so they add up to the mean traced step.
func budgetMetrics(m map[string]float64, samples map[string]summary, bs []evalBudget) {
	if len(bs) < 2 {
		return
	}
	steps := bs[1:]
	k := float64(len(steps))
	var self float64
	host := map[string]float64{}
	virt := map[string]float64{}
	totals := make([]float64, 0, len(steps))
	for _, b := range steps {
		for _, name := range phaseNames {
			host[name] += b.PhaseHost[name] / k
			virt[name] += b.PhaseVirt[name] / k
		}
		self += b.SelfHostS / k
		totals = append(totals, b.HostS)
	}
	m["core.decompose_host_s"] = host[spanDecompose]
	m["core.build_host_s"] = host[spanBuild]
	m["core.forces_host_s"] = host[spanForces]
	m["core.integrate_host_s"] = host[spanIntegrate]
	m["core.step_self_host_s"] = self
	m["core.decompose_virtual_s"] = virt[spanDecompose]
	m["core.build_virtual_s"] = virt[spanBuild]
	m["core.forces_virtual_s"] = virt[spanForces]
	m["core.first_eval_host_s"] = bs[0].HostS
	m["core.steady_step_host_s"] = median(totals[len(totals)/2:])
	samples["core.traced_step_host_s"] = summarize(totals)
}

// spanFile is the on-disk form of a traced pass.
type spanFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Steps    int    `json:"steps"`
	Procs    int    `json:"procs"`
	Spans    []span `json:"spans"`
}

func writeSpans(path string, f spanFile) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedNBodyChild is the traced pass of an N-body workload: the span
// driver, its budget, and the agreement check of its first evaluation
// against the program's own accounting. With withObs it runs under obs
// tracing plus event retention instead, for the cost of observing.
func tracedNBodyChild(w workload, p runParams, withObs bool) (*childOut, error) {
	out := &childOut{Metrics: map[string]float64{}, Samples: map[string]summary{}}
	ics, cl, err := newNBody(w, p)
	if err != nil {
		return nil, err
	}
	if withObs {
		cl = cl.WithObs(obs.New(true).EnableEvents())
	}
	tr := tracedNBody(w, cl, ics, p.Steps)
	out.WallS = tr.wallS
	out.Attempted += w.evals(p.Steps)
	out.check(tr.err == nil, "traced driver: %v", tr.err)
	if tr.err != nil {
		out.Failed += w.evals(p.Steps)
		return out, nil
	}
	if withObs {
		return out, nil
	}
	drift, finite := energyDrift(tr.energies)
	out.check(finite && drift <= p.ceiling(energyCeilNBody), "traced driver energy drift %.3e", drift)

	bs, err := budgets(tr.spans)
	if err != nil {
		return nil, err
	}
	budgetMetrics(out.Metrics, out.Samples, bs)
	if err := writeSpans(p.SpanFile, spanFile{w.Name, p.Seed, p.Steps, w.Procs, tr.spans}); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	// The driver is only a faithful mirror if the program counts the same
	// work for the same evaluation. Barriers cost virtual time on more than
	// one rank, so the clock is compared on a single rank only.
	ref := core.Run(w.runConfig(cl, 0), ics)
	out.check(ref.Err == nil, "reference evaluation: %v", ref.Err)
	out.check(ref.Interactions == tr.firstInteractions,
		"first evaluation: driver counted %d interactions, core.Run %d", tr.firstInteractions, ref.Interactions)
	out.check(ref.Fetches == tr.firstFetches,
		"first evaluation: driver counted %d fetches, core.Run %d", tr.firstFetches, ref.Fetches)
	if w.Procs == 1 {
		out.check(ref.ElapsedVirtual == tr.firstClock,
			"first evaluation: driver clock %v, core.Run %v", tr.firstClock, ref.ElapsedVirtual)
	}
	return out, nil
}
