package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"spacesim/internal/core"
	"spacesim/internal/gravity"
	"spacesim/internal/machine"
	"spacesim/internal/mp"
	"spacesim/internal/netsim"
	"spacesim/internal/vec"
)

// Correctness ceilings: a run above either is a failed run.
const (
	energyCeilNBody = 1e-3
	energyCeilSPH   = 2e-2
	forceErrCeil    = 1e-2
	// miniatureSlack loosens the ceilings for runs with an overridden body
	// count: a few hundred bodies resolve the field far worse than the
	// declared sizes the ceilings were set for.
	miniatureSlack = 10
	// forceSamples sinks are compared against direct summation.
	forceSamples = 2048
	// setupReps set-ups are timed per run and the median reported.
	setupRepsNBody = 9
	setupRepsSPH   = 5
)

// ceiling scales a correctness ceiling for the run's size.
func (p runParams) ceiling(c float64) float64 {
	if p.N > 0 {
		return c * miniatureSlack
	}
	return c
}

func (w workload) options() core.Options {
	return core.Options{Theta: nbTheta, Eps: nbEps, DT: nbDT, MaxLeaf: w.MaxLeaf, Workers: w.Workers}
}

// runConfig is the fixed engine protocol: the event engine with one engine
// worker, under which the virtual schedule repeats bit for bit.
func (w workload) runConfig(cl machine.Cluster, steps int) core.RunConfig {
	return core.RunConfig{
		Cluster: cl, Procs: w.Procs, Steps: steps, Opt: w.options(),
		Engine: mp.EngineEvent, EngineWorkers: 1,
	}
}

func (w workload) runOptions() mp.RunOptions {
	return mp.RunOptions{Engine: mp.EngineEvent, Workers: 1}
}

// newNBody generates the inputs and builds the cluster model.
func newNBody(w workload, p runParams) ([]core.Body, machine.Cluster, error) {
	ics, err := core.MakeICs(w.Scenario, p.Seed, w.size(p))
	return ics, machine.SpaceSimulator(netsim.ProfileLAM), err
}

// setupNBody times newNBody setupRepsNBody times.
func setupNBody(w workload, p runParams) ([]core.Body, machine.Cluster, summary, error) {
	var ics []core.Body
	var cl machine.Cluster
	times := make([]float64, 0, setupRepsNBody)
	for i := 0; i < setupRepsNBody; i++ {
		t0 := time.Now()
		var err error
		if ics, cl, err = newNBody(w, p); err != nil {
			return nil, cl, summary{}, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return ics, cl, summarize(times), nil
}

// plainNBody is the end-to-end run: core.Run as a user calls it, timed as
// a whole in this fresh process, then checked.
func plainNBody(w workload, p runParams) (*childOut, error) {
	out := &childOut{Metrics: map[string]float64{}, Samples: map[string]summary{}}
	m := out.Metrics
	ics, cl, setup, err := setupNBody(w, p)
	if err != nil {
		return nil, err
	}
	m["setup_s"] = setup.Median
	out.Samples["setup_s"] = setup

	cfg := w.runConfig(cl, p.Steps)
	evals := w.evals(p.Steps)
	before := snapProc()
	t0 := time.Now()
	res := core.Run(cfg, ics)
	out.WallS = time.Since(t0).Seconds()
	after := snapProc()
	processMetrics(m, before, after, evals)

	out.Attempted += evals
	out.Failed += evals - (res.CompletedSteps + 1)
	out.check(res.Err == nil, "core.Run: %v", res.Err)
	out.check(res.CompletedSteps == p.Steps, "completed %d of %d steps", res.CompletedSteps, p.Steps)
	if res.Err != nil {
		return out, nil
	}

	e := float64(evals)
	m["host_s_per_step"] = out.WallS / e
	m["virtual_s_per_step"] = res.ElapsedVirtual / e
	m["mflops_per_proc"] = res.MflopsPerProc
	drift, finite := energyDrift(res.EnergyHistory)
	out.check(finite, "non-finite energy in history")
	out.check(drift <= p.ceiling(energyCeilNBody), "energy drift %.3e above %.0e", drift, p.ceiling(energyCeilNBody))
	m["energy_drift_rel"] = drift
	programMetrics(m, w, res, out.WallS, evals, len(ics))

	ferr, err := forceErrNBody(w, cl, ics)
	out.check(err == nil && ferr.rms <= p.ceiling(forceErrCeil), "force error %.3e above %.0e (%v)", ferr.rms, p.ceiling(forceErrCeil), err)
	m["force_err_median"], m["force_err_rms"] = ferr.median, ferr.rms
	return out, nil
}

// energyDrift is |E_end - E_0| / |E_0| and whether every total was finite.
func energyDrift(h []core.Energies) (float64, bool) {
	for _, e := range h {
		if !finite(e.Total()) {
			return math.Inf(1), false
		}
	}
	if len(h) == 0 || h[0].Total() == 0 {
		return math.Inf(1), false
	}
	e0 := h[0].Total()
	return math.Abs(h[len(h)-1].Total()-e0) / math.Abs(e0), true
}

// ratio is a/b, or 0 when the layer did no such work (b == 0): a metric of
// a layer the workload never enters reads 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// programMetrics derives the per-layer figures the program itself counts:
// from Result, mp.Stats, the per-rank virtual-time breakdown and the run's
// always-on metrics registry. Nothing is added to the program to get them.
func programMetrics(m map[string]float64, w workload, res core.Result, wallS float64, evals, n int) {
	e := float64(evals)
	st := res.Comm
	counters, gauges := st.Obs.Reg.Snapshot()
	hists := st.Obs.Reg.HistogramSnapshots()
	c := func(name string) float64 { return float64(counters[name]) }

	var compute, wait, coll, send float64
	for _, rm := range st.Obs.RankMetrics() {
		compute += rm.ComputeSec
		wait += rm.WaitSec
		coll += rm.CollectiveSec
		send += rm.SendSec
	}
	rankTime := float64(w.Procs) * st.ElapsedVirtual
	m["virtual_parallel_eff"] = ratio(compute, rankTime)

	m["core.host_ns_per_interaction"] = ratio(wallS*1e9, float64(res.Interactions))
	m["core.interactions_per_body"] = float64(res.Interactions) / e / float64(n)
	m["core.fetches_per_step"] = float64(res.Fetches) / e
	m["core.buckets_per_step"] = c("core.buckets") / e
	m["core.fetch_dedup_ratio"] = ratio(c("core.fetch.dedup_hits"), c("core.fetch.dedup_hits")+c("core.fetch.requests"))
	m["core.bodycache_hit_ratio"] = ratio(c("core.bodycache.hits"), c("core.bodycache.hits")+c("core.bodycache.misses"))
	m["core.list_bodies_p50"] = hists["core.list.bodies_len"].P50
	m["core.list_cells_p50"] = hists["core.list.cells_len"].P50
	m["core.max_imbalance"] = res.MaxImbalance
	m["core.pool_utilization"] = ratio(c("core.pool.busy_ns"), c("core.pool.wall_ns")*math.Max(1, gauges["core.pool.workers"]))

	m["mp.messages_per_step"] = float64(st.Messages) / e
	m["mp.bytes_per_step"] = float64(st.Bytes) / e
	m["mp.collective_messages_per_step"] = float64(st.CollectiveMessages) / e
	m["mp.collective_bytes_per_step"] = float64(st.CollectiveBytes) / e
	m["mp.wait_virtual_frac"] = ratio(wait, rankTime)
	m["mp.collective_virtual_frac"] = ratio(coll, rankTime)
	m["mp.send_virtual_frac"] = ratio(send, rankTime)
	m["mp.abm_items_per_batch"] = ratio(c("mp.abm.items"), c("mp.abm.batches"))
	m["mp.msg_latency_p50_virtual_s"] = hists["mp.msg.latency_sec"].P50
	m["mp.msg_latency_p99_virtual_s"] = hists["mp.msg.latency_sec"].P99
	m["mp.engine_events_per_step"] = c("mp.engine.events") / e
	m["mp.engine_parks_per_step"] = c("mp.engine.parks") / e
	m["netsim.congested_msgs_per_step"] = c("net.congested.msgs") / e
	m["netsim.trunk_bytes_per_step"] = c("net.trunk.bytes") / e
}

// idAcc pairs a body's stable ID with its computed acceleration.
type idAcc struct {
	id  int64
	acc vec.V3
}

// treeForces evaluates the initial conditions once through the workload's
// own distributed path — Decompose, BuildDistributed, ComputeForces on its
// rank count and options — and returns the accelerations ordered by ID.
func treeForces(w workload, cl machine.Cluster, ics []core.Body) ([]vec.V3, error) {
	var all []idAcc
	opt := w.options()
	st := mp.RunWith(cl, w.Procs, w.runOptions(), func(r *mp.Rank) {
		n, p := len(ics), r.Size()
		local := append([]core.Body(nil), ics[n*r.ID()/p:n*(r.ID()+1)/p]...)
		bodies, splitters, boxLo, boxSize := core.Decompose(r, local)
		dt := core.BuildDistributed(r, bodies, splitters, boxLo, boxSize, opt)
		acc, _, _ := dt.ComputeForces(bodies)
		mine := make([]idAcc, len(bodies))
		for i := range bodies {
			mine[i] = idAcc{bodies[i].ID, acc[i]}
		}
		parts := r.AllgatherAny(mine, int64(len(mine)*32))
		if r.ID() == 0 {
			for _, pt := range parts {
				all = append(all, pt.([]idAcc)...)
			}
		}
	})
	if st.Err != nil {
		return nil, st.Err
	}
	if len(all) != len(ics) {
		return nil, fmt.Errorf("gathered %d of %d bodies", len(all), len(ics))
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	acc := make([]vec.V3, len(all))
	for i, a := range all {
		if a.id != int64(i) {
			return nil, fmt.Errorf("body IDs are not 0..n-1 (slot %d holds %d)", i, a.id)
		}
		acc[i] = a.acc
	}
	return acc, nil
}

// forceErr is the treecode's acceleration error against direct summation,
// two ways: the median of the per-body relative errors — the typical
// error, steady from seed to seed, the end-to-end figure — and the RMS,
// which a few badly resolved bodies lead and which moves 15% with the
// realisation of the initial conditions; it is reported per layer and
// held under a ceiling.
type forceErr struct{ median, rms float64 }

// forceErrNBody compares the treecode on the initial conditions against
// the scalar libm kernel over all sources.
func forceErrNBody(w workload, cl machine.Cluster, ics []core.Body) (forceErr, error) {
	acc, err := treeForces(w, cl, ics)
	if err != nil {
		return forceErr{math.Inf(1), math.Inf(1)}, err
	}
	pos := make([]vec.V3, len(ics))
	mass := make([]float64, len(ics))
	for i, b := range ics {
		pos[i], mass[i] = b.Pos, b.Mass
	}
	return forceErrAgainstDirect(pos, mass, acc, nbEps), nil
}

// forceErrAgainstDirect compares acc against direct summation at
// forceSamples evenly spaced bodies. The RMS is sqrt(sum |a - a_ref|^2 /
// sum |a_ref|^2): normalising by the summed reference, not body by body,
// keeps near-zero accelerations at the centre of a uniform sphere from
// dominating it.
func forceErrAgainstDirect(pos []vec.V3, mass []float64, acc []vec.V3, eps float64) forceErr {
	src := make([]gravity.Source, len(pos))
	for i := range pos {
		src[i] = gravity.Source{Pos: pos[i], Mass: mass[i]}
	}
	ns := forceSamples
	if ns > len(pos) {
		ns = len(pos)
	}
	var num, den float64
	rel := make([]float64, 0, ns)
	for k := 0; k < ns; k++ {
		i := k * len(pos) / ns
		ref, _ := gravity.KernelLibm(pos[i], src, eps*eps)
		d2, r2 := acc[i].Sub(ref).Norm2(), ref.Norm2()
		num += d2
		den += r2
		if r2 > 0 {
			rel = append(rel, math.Sqrt(d2/r2))
		}
	}
	if den == 0 || len(rel) == 0 {
		return forceErr{math.Inf(1), math.Inf(1)}
	}
	return forceErr{median: median(rel), rms: math.Sqrt(num / den)}
}
