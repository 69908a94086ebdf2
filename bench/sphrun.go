package main

import (
	"fmt"
	"math"
	"time"

	"spacesim/internal/gravity"
	"spacesim/internal/htree"
	"spacesim/internal/sph"
	"spacesim/internal/vec"
)

// newSPH builds the rotating pre-collapse core, including its first
// density pass.
func newSPH(w workload, p runParams) *sph.Sim {
	s := sph.NewRotatingCollapse(sph.RotatingCollapseOptions{
		N: w.size(p), Omega: 0.3, PressureDeficit: 0.85, Seed: p.Seed,
	})
	s.Cfg.Workers = w.Workers
	return s
}

// setupSPH times the construction setupRepsSPH times.
func setupSPH(w workload, p runParams) (*sph.Sim, summary) {
	var s *sph.Sim
	times := make([]float64, 0, setupRepsSPH)
	for i := 0; i < setupRepsSPH; i++ {
		t0 := time.Now()
		s = newSPH(w, p)
		times = append(times, time.Since(t0).Seconds())
	}
	return s, summarize(times)
}

// sphGravity replays the self-gravity call of sph.Sim's force routine from
// outside: the shared htree.Build + AccelAllGrouped path with the SPH
// bucket size, softening and opening angle.
func sphGravity(s *sph.Sim, w workload, pos []vec.V3, arena *htree.Arena) ([]vec.V3, error) {
	tr, err := htree.Build(pos, s.P.Mass, htree.Options{MaxLeaf: w.MaxLeaf, Workers: w.Workers, Arena: arena})
	if err != nil {
		return nil, err
	}
	acc, _, _ := tr.AccelAllGrouped(s.Cfg.GravTheta, s.Cfg.GravEps, false, gravity.Float64, w.Workers)
	return acc, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// plainSPH is the end-to-end run of the collapse: Step() as a user calls
// it, the loop timed as a whole in this fresh process, then checked.
func plainSPH(w workload, p runParams) (*childOut, error) {
	out := &childOut{Metrics: map[string]float64{}, Samples: map[string]summary{}}
	m := out.Metrics
	s, setup := setupSPH(w, p)
	m["setup_s"] = setup.Median
	out.Samples["setup_s"] = setup

	pos0 := append([]vec.V3(nil), s.P.Pos...)
	e0 := s.Diag().Total()

	before := snapProc()
	t0 := time.Now()
	for i := 0; i < p.Steps; i++ {
		dt := s.Step()
		out.check(finite(dt) && dt > 0, "step %d: timestep %v", i, dt)
	}
	out.WallS = time.Since(t0).Seconds()
	after := snapProc()
	processMetrics(m, before, after, p.Steps)

	e1 := s.Diag().Total()
	drift := math.Abs(e1-e0) / math.Abs(e0)
	out.check(finite(e0) && finite(e1) && e0 != 0, "non-finite energy (%v -> %v)", e0, e1)
	out.check(drift <= p.ceiling(energyCeilSPH), "energy drift %.3e above %.0e", drift, p.ceiling(energyCeilSPH))
	m["host_s_per_step"] = out.WallS / float64(p.Steps)
	m["energy_drift_rel"] = drift

	// The force check is made on the initial positions, after the timed
	// loop so it cannot warm anything the loop uses.
	acc, err := sphGravity(s, w, pos0, &htree.Arena{})
	ferr := forceErr{math.Inf(1), math.Inf(1)}
	if err == nil {
		ferr = forceErrAgainstDirect(pos0, s.P.Mass, acc, s.Cfg.GravEps)
	}
	out.check(err == nil && ferr.rms <= p.ceiling(forceErrCeil), "force error %.3e above %.0e (%v)", ferr.rms, p.ceiling(forceErrCeil), err)
	m["force_err_median"], m["force_err_rms"] = ferr.median, ferr.rms
	return out, nil
}

// tracedSPH is the traced pass of the collapse. The integrator is one
// call, so its layers are timed by replaying them from outside after each
// step on the positions the step left: the density pass and the gravity
// call. What is left of the step is the hydro loop and the integrator.
func tracedSPH(w workload, p runParams) (*childOut, error) {
	out := &childOut{Metrics: map[string]float64{}, Samples: map[string]summary{}}
	m := out.Metrics
	s := newSPH(w, p)
	arena := &htree.Arena{}
	tr := rankTrace{t0: time.Now()}
	var stepT, densT, gravT []float64
	timed := func(name string, eval, parent int, fn func()) (int, float64) {
		i := tr.begin(name, eval, parent, 0)
		fn()
		tr.end(i, 0)
		return tr.spans[i].ID, tr.spans[i].HostEnd - tr.spans[i].HostStart
	}
	t0 := time.Now()
	for i := 0; i < p.Steps; i++ {
		id, d := timed(spanStep, i, 0, func() { s.Step() })
		stepT = append(stepT, d)
		_, d = timed("density-replay", i, id, s.UpdateDensity)
		densT = append(densT, d)
		var err error
		_, d = timed("gravity-replay", i, id, func() { _, err = sphGravity(s, w, s.P.Pos, arena) })
		if err != nil {
			return nil, fmt.Errorf("gravity replay: %w", err)
		}
		gravT = append(gravT, d)
	}
	out.WallS = time.Since(t0).Seconds()
	out.Attempted = p.Steps

	m["sph.step_host_s"] = median(stepT)
	m["sph.density_host_s"] = median(densT)
	m["sph.gravity_host_s"] = median(gravT)
	m["sph.hydro_self_host_s"] = math.Max(0, m["sph.step_host_s"]-m["sph.density_host_s"]-m["sph.gravity_host_s"])
	out.Samples["sph.step_host_s"] = summarize(stepT)
	neighborProbe(m, out.Samples, s)
	if err := writeSpans(p.SpanFile, spanFile{w.Name, p.Seed, p.Steps, 1, tr.spans}); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return out, nil
}

// neighborProbe times sph.Grid.Neighbors on the current particle state and
// measures how much of what it returns the force loop can use. The grid
// cell spans the largest kernel support in the set and the force loop
// queries every particle at that radius, so a few large particles make
// every query return candidates the pair test then throws away.
func neighborProbe(m map[string]float64, samples map[string]summary, s *sph.Sim) {
	p := s.P
	n := p.N()
	maxH := 0.0
	for _, h := range p.H {
		maxH = math.Max(maxH, h)
	}
	grid := sph.BuildGrid(p.Pos, sph.SupportRadius(maxH))
	var nbr []int32
	const reps = 5
	perQuery := make([]float64, 0, reps)
	var found int
	for rep := 0; rep < reps; rep++ {
		found = 0
		t0 := time.Now()
		for i := 0; i < n; i++ {
			nbr = grid.Neighbors(p.Pos, p.Pos[i], sph.SupportRadius(p.H[i]), nbr[:0])
			found += len(nbr)
		}
		perQuery = append(perQuery, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	var returned, useful int
	for i := 0; i < n; i++ {
		nbr = grid.Neighbors(p.Pos, p.Pos[i], sph.SupportRadius(maxH), nbr[:0])
		returned += len(nbr)
		for _, j := range nbr {
			hm := 0.5 * (p.H[i] + p.H[j])
			if p.Pos[i].Dist(p.Pos[j]) < sph.SupportRadius(hm) {
				useful++
			}
		}
	}
	m["sph.neighbors_ns_per_query"] = median(perQuery)
	samples["sph.neighbors_ns_per_query"] = summarize(perQuery)
	m["sph.neighbors_per_particle"] = float64(found) / float64(n)
	m["sph.neighbor_useful_ratio"] = ratio(float64(useful), float64(returned))
}
