package sph

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"spacesim/internal/gravity"
	"spacesim/internal/htree"
	"spacesim/internal/obs"
	"spacesim/internal/vec"
)

// tinySim wraps the given positions (equal masses summing to one, a little
// thermal and neutrino energy) in a Sim with every physics term switched on.
func tinySim(pos []vec.V3) *Sim {
	n := len(pos)
	p := &Particles{Pos: pos, Vel: make([]vec.V3, n), Mass: make([]float64, n),
		U: make([]float64, n), Enu: make([]float64, n)}
	for i := range p.Mass {
		p.Mass[i] = 1 / float64(n)
		p.U[i] = 0.1
		p.Enu[i] = 0.01 * float64(i+1)
	}
	eos := NewEOS(0.1, 100, 4.0/3.0, 2.5, 5.0/3.0)
	fld := &FLD{C: 10, Kappa0: 5, EmissRate: 0.1, RhoEmit: 1}
	return NewSim(DefaultConfig(eos, fld), p)
}

// Degenerate particle sets go through NewSim and Step without a panic and
// with finite results. The expected rho and h, after NewSim and after the
// step, are the ones the grid-searched code before the tree search produced
// (which panicked on the empty set).
func TestTinyAndCoincidentSets(t *testing.T) {
	a, b := vec.V3{0.5, 0.25, -0.125}, vec.V3{-0.5, 0.75, 0.375}
	type state struct{ rho, h []float64 }
	for _, tc := range []struct {
		name        string
		pos         []vec.V3
		fresh, step state
	}{
		{name: "empty"},
		{"one", []vec.V3{a},
			state{[]float64{0.039297281028655935}, []float64{3.3610602820249924}},
			state{[]float64{0.0017884629232597208}, []float64{9.413919688332227}}},
		// equal h on both sides of the one pair: the tie rule of the pair pass
		{"two apart", []vec.V3{a, b},
			state{[]float64{0.06142543353030844, 0.06142543353030844}, []float64{2.2986405336774216, 2.2986405336774216}},
			state{[]float64{0.008611685681860222, 0.008611685681860222}, []float64{4.424773869615678, 4.424773869615678}}},
		{"two coincident", []vec.V3{a, a},
			state{[]float64{0.15718912411462374, 0.15718912411462374}, []float64{1.6805301410124962, 1.6805301410124962}},
			state{[]float64{0.02861540677215552, 0.02861540677215552}, []float64{2.965198894337389, 2.965198894337389}}},
		{"three, two coincident", []vec.V3{a, b, a},
			state{[]float64{0.1739559646577435, 0.07013724516690455, 0.1739559646577435},
				[]float64{1.4193089550005198, 1.9212054790146624, 1.4193089550005198}},
			state{[]float64{0.04747073890988199, 0.016969775546528225, 0.04747073890988199},
				[]float64{2.1881716508191174, 3.0831738823797963, 2.1881716508191174}}},
	} {
		s := tinySim(tc.pos)
		check := func(when string, want state) {
			t.Helper()
			for i := range tc.pos {
				if relErr(s.P.Rho[i], want.rho[i]) > 1e-14 || relErr(s.P.H[i], want.h[i]) > 1e-14 {
					t.Fatalf("%s, %s: particle %d has rho %v h %v, want %v %v",
						tc.name, when, i, s.P.Rho[i], s.P.H[i], want.rho[i], want.h[i])
				}
			}
		}
		check("after NewSim", tc.fresh)
		if dt := s.Step(); !(dt > 0) || math.IsInf(dt, 0) {
			t.Fatalf("%s: dt = %v", tc.name, dt)
		}
		check("after Step", tc.step)
		s.UpdateDensity()
		d := s.Diag()
		for _, x := range []float64{d.Total(), d.MaxRho, d.CentralVr, d.Momentum.Norm(), d.AngMom.Norm()} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("%s: diagnostics not finite: %+v", tc.name, d)
			}
		}
		if len(tc.pos) == 0 && d != (Diagnostics{}) {
			t.Fatalf("empty set: diagnostics %+v, want zero", d)
		}
	}
}

func relErr(got, want float64) float64 {
	if got == want {
		return 0
	}
	return math.Abs(got-want) / math.Max(math.Abs(got), math.Abs(want))
}

func cloneParticles(p *Particles) *Particles {
	return &Particles{
		Pos: append([]vec.V3(nil), p.Pos...), Vel: append([]vec.V3(nil), p.Vel...),
		Mass: append([]float64(nil), p.Mass...), U: append([]float64(nil), p.U...),
		Enu: append([]float64(nil), p.Enu...), H: append([]float64(nil), p.H...),
		Rho: append([]float64(nil), p.Rho...), P: append([]float64(nil), p.P...),
		Cs: append([]float64(nil), p.Cs...),
	}
}

// Sim.P is exported: a caller that moves particles between calls must get the
// results of a Sim built from the moved state, not those of the tree the last
// step left behind; one that raises smoothing lengths must get leaves
// searched again for the larger supports, not the neighbours of the last
// search.
func TestStaleTreeRebuilt(t *testing.T) {
	opt := RotatingCollapseOptions{N: 300, Omega: 0.3, PressureDeficit: 0.85, Seed: 11}
	s := NewRotatingCollapse(opt)
	s.Step()
	s.P.Pos[7] = s.P.Pos[7].Add(vec.V3{0.05, -0.02, 0.01})
	s.P.Pos[120] = s.P.Pos[120].Scale(0.9)

	// A fresh Sim builds its tree on the edited positions and then continues
	// from the very state s is in (NewSim alone would iterate h twice more).
	fresh := NewSim(s.Cfg, cloneParticles(s.P))
	fresh.P = cloneParticles(s.P)

	if got, want := s.Diag(), fresh.Diag(); got != want {
		t.Fatalf("Diag after an edit of P.Pos:\n%+v\nfresh Sim:\n%+v", got, want)
	}
	if got, want := s.Step(), fresh.Step(); got != want {
		t.Fatalf("dt after an edit of P.Pos: %v, fresh Sim %v", got, want)
	}
	if !reflect.DeepEqual(s.P, fresh.P) {
		t.Fatal("particle state after an edit of P.Pos and a Step differs from a fresh Sim's")
	}

	// Larger smoothing lengths on the same tree, then on a moved one. A
	// search from a few smaller supports would still find most neighbours
	// of a set this small, so every seventh particle grows.
	for _, move := range []bool{false, true} {
		for i := 0; i < s.P.N(); i += 7 {
			s.P.H[i] *= 1.5
		}
		if move {
			s.P.Pos[42] = s.P.Pos[42].Add(vec.V3{-0.03, 0.02, 0.04})
		}
		fresh := NewSim(s.Cfg, cloneParticles(s.P))
		fresh.P = cloneParticles(s.P)
		if got, want := s.Step(), fresh.Step(); got != want {
			t.Fatalf("moved=%v: dt after raising P.H: %v, fresh Sim %v", move, got, want)
		}
		if !reflect.DeepEqual(s.P, fresh.P) {
			t.Fatalf("moved=%v: particle state after raising P.H and a Step differs from a fresh Sim's", move)
		}
	}
}

// One tree per position set: a Step builds exactly one tree, and neither the
// Diag that follows it nor a repeated density pass builds another.
func TestOneTreeBuildPerStep(t *testing.T) {
	s := NewRotatingCollapse(RotatingCollapseOptions{N: 300, Omega: 0.3, PressureDeficit: 0.85, Seed: 11})
	o := obs.New(false)
	s.SetObs(o)
	builds := o.Reg.Counter("htree.builds")
	for step := 1; step <= 3; step++ {
		s.Step()
		s.Diag()
		s.UpdateDensity()
		if got := builds.Value(); got != int64(step) {
			t.Fatalf("after %d steps, each with a Diag and a density pass: %d tree builds", step, got)
		}
	}
	cand, nbr := o.Reg.Counter("sph.search.candidates").Value(), o.Reg.Counter("sph.search.neighbors").Value()
	if nbr <= 0 || cand < nbr {
		t.Fatalf("search counters: %d candidates, %d neighbours", cand, nbr)
	}
}

// collapseState is a small collapse a few steps in, where smoothing lengths
// already differ by more than half across the set.
func collapseState(t *testing.T) *Sim {
	t.Helper()
	s := NewRotatingCollapse(RotatingCollapseOptions{N: 500, Omega: 0.3, PressureDeficit: 0.85, Seed: 4})
	for i := 0; i < 6; i++ {
		s.Step()
	}
	lo, hi := math.Inf(1), 0.0
	for _, h := range s.P.H {
		lo, hi = math.Min(lo, h), math.Max(hi, h)
	}
	if hi < 1.5*lo {
		t.Fatalf("smoothing lengths span only %.3g..%.3g", lo, hi)
	}
	return s
}

// The density pass against O(N^2) loops: gather over r <= 2 h_i, twice, h
// updated in between.
func TestDensityAgainstBruteForce(t *testing.T) {
	s := collapseState(t)
	p := s.P
	n := p.N()
	h := append([]float64(nil), p.H...)
	rho := make([]float64, n)
	eta := 0.5 * math.Cbrt(3*float64(s.Cfg.NNeighbors)/(4*math.Pi))
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			rho[i] = 0
			for j := 0; j < n; j++ {
				if r := p.Pos[i].Dist(p.Pos[j]); r <= 2*h[i] {
					rho[i] += p.Mass[j] * W(r, h[i])
				}
			}
			h[i] = eta * math.Cbrt(p.Mass[i]/rho[i])
		}
	}
	s.UpdateDensity()
	for i := 0; i < n; i++ {
		if relErr(p.Rho[i], rho[i]) > 1e-12 || relErr(p.H[i], h[i]) > 1e-12 {
			t.Fatalf("particle %d: rho %v h %v, brute force %v %v", i, p.Rho[i], p.H[i], rho[i], h[i])
		}
	}
}

// pairTermsByID is the pair evaluation before the particle rows, every
// factor read by particle index from the particle arrays and from diffD,
// and computed once per pair: the oracle of pairTerms.
func pairTermsByID(s *Sim, diffD []float64, i, j int, rij vec.V3, r, hm float64) pairRec {
	p, cfg := s.P, &s.Cfg
	dw := DW(r, hm)
	gradW := rij.Scale(dw / r)
	vij := p.Vel[i].Sub(p.Vel[j])
	pi := 0.0
	vdotr := vij.Dot(rij)
	if vdotr < 0 {
		mu := hm * vdotr / (r*r + 0.01*hm*hm)
		cm := 0.5 * (p.Cs[i] + p.Cs[j])
		rhom := 0.5 * (p.Rho[i] + p.Rho[j])
		pi = (-cfg.AlphaVisc*cm*mu + cfg.BetaVisc*mu*mu) / rhom
	}
	rec := pairRec{i: int32(i), j: int32(j), gradW: gradW}
	rec.term = p.P[i]/(p.Rho[i]*p.Rho[i]) + p.P[j]/(p.Rho[j]*p.Rho[j]) + pi
	gth := cfg.EOS.GammaTh - 1
	thTerm := gth*p.U[i]/p.Rho[i] + gth*p.U[j]/p.Rho[j] + pi
	rec.work = 0.5 * thTerm * vij.Dot(gradW)
	if di, dj := diffD[i], diffD[j]; cfg.FLD != nil && di > 0 && dj > 0 {
		dbar := 4 * di * dj / (di + dj)
		f := -dw / r
		rec.flux = dbar * f / (p.Rho[i] * p.Rho[j]) *
			(p.Rho[j]*p.Enu[j] - p.Rho[i]*p.Enu[i])
	}
	return rec
}

// Every pair record the pass evaluates from the tree-ordered rows holds the
// bits the by-index evaluation gives for the same two particles.
func TestPairTermsMatchByID(t *testing.T) {
	s := collapseState(t)
	p := s.P
	for i := range p.Enu {
		p.Enu[i] = 0.02 * p.U[i] * (1 + math.Sin(float64(i)))
	}
	s.computeForces()
	bodies, src := s.tree.Bodies, s.tree.Sources()
	diffD := make([]float64, p.N())
	for k, b := range bodies {
		diffD[b.ID] = s.diffD[k]
	}
	pairs, fluxes := 0, 0
	for _, leaf := range s.pairs {
		for _, got := range leaf.recs {
			k, kj := int(got.i), int(got.j)
			i, j := bodies[k].ID, bodies[kj].ID
			xi, xj := src[k].Pos, src[kj].Pos
			rij := vec.V3{xi[0] - xj[0], xi[1] - xj[1], xi[2] - xj[2]}
			r := math.Sqrt(rij[0]*rij[0] + rij[1]*rij[1] + rij[2]*rij[2])
			want := pairTermsByID(s, diffD, i, j, rij, r, 0.5*(p.H[i]+p.H[j]))
			want.i, want.j = got.i, got.j
			if got != want {
				t.Fatalf("pair (%d, %d): %+v, by index %+v", i, j, got, want)
			}
			pairs++
			if got.flux != 0 {
				fluxes++
			}
		}
	}
	if pairs == 0 || fluxes == 0 {
		t.Fatalf("%d pairs, %d with a neutrino flux", pairs, fluxes)
	}
}

// The force pass against O(N^2) loops: the FLD gradient gathered over
// r <= 2 h_i, every pair with r < h_i + h_j evaluated once.
func TestForcesAgainstBruteForce(t *testing.T) {
	s := collapseState(t)
	p, cfg := s.P, s.Cfg
	n := p.N()
	// Give the neutrino field something to diffuse.
	for i := range p.Enu {
		p.Enu[i] = 0.02 * p.U[i] * (1 + math.Sin(float64(i)))
	}
	diffD := make([]float64, n)
	maxDiffOverH2 := 0.0
	for i := 0; i < n; i++ {
		e := p.Rho[i] * p.Enu[i]
		var grad vec.V3
		for j := 0; j < n; j++ {
			rij := p.Pos[i].Sub(p.Pos[j])
			r := rij.Norm()
			if r == 0 || r > 2*p.H[i] {
				continue
			}
			grad = grad.AddScaled(p.Mass[j]/p.Rho[j]*(p.Rho[j]*p.Enu[j]-e)*DW(r, p.H[i])/r, rij)
		}
		diffD[i] = cfg.FLD.DiffusionCoeff(p.Rho[i], e, grad.Norm())
		maxDiffOverH2 = math.Max(maxDiffOverH2, diffD[i]/(p.H[i]*p.H[i]))
	}
	acc := make([]vec.V3, n)
	dudt := make([]float64, n)
	dnu := make([]float64, n)
	pairs := 0
	gth := cfg.EOS.GammaTh - 1
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			rij := p.Pos[i].Sub(p.Pos[j])
			r := rij.Norm()
			if r == 0 || r >= p.H[i]+p.H[j] {
				continue
			}
			pairs++
			hm := 0.5 * (p.H[i] + p.H[j])
			dw := DW(r, hm)
			gradW := rij.Scale(dw / r)
			vij := p.Vel[i].Sub(p.Vel[j])
			visc := 0.0
			if vdotr := vij.Dot(rij); vdotr < 0 {
				mu := hm * vdotr / (r*r + 0.01*hm*hm)
				visc = (-cfg.AlphaVisc*0.5*(p.Cs[i]+p.Cs[j])*mu + cfg.BetaVisc*mu*mu) / (0.5 * (p.Rho[i] + p.Rho[j]))
			}
			term := p.P[i]/(p.Rho[i]*p.Rho[i]) + p.P[j]/(p.Rho[j]*p.Rho[j]) + visc
			acc[i] = acc[i].AddScaled(-p.Mass[j]*term, gradW)
			acc[j] = acc[j].AddScaled(p.Mass[i]*term, gradW)
			work := 0.5 * (gth*p.U[i]/p.Rho[i] + gth*p.U[j]/p.Rho[j] + visc) * vij.Dot(gradW)
			dudt[i] += p.Mass[j] * work
			dudt[j] += p.Mass[i] * work
			if di, dj := diffD[i], diffD[j]; di > 0 && dj > 0 {
				flux := 4 * di * dj / (di + dj) * (-dw / r) / (p.Rho[i] * p.Rho[j]) *
					(p.Rho[j]*p.Enu[j] - p.Rho[i]*p.Enu[i])
				dnu[i] += p.Mass[j] * flux
				dnu[j] -= p.Mass[i] * flux
			}
		}
	}
	for i := 0; i < n; i++ {
		if f := cfg.FLD; p.Rho[i] > f.RhoEmit && p.U[i] > 0 {
			rate := f.EmissRate * (p.Rho[i] / f.RhoEmit) * (p.Rho[i] / f.RhoEmit)
			dudt[i] -= rate * p.U[i]
			dnu[i] += rate * p.U[i]
		}
	}

	o := obs.New(false)
	s.SetObs(o)
	s.computeForces()
	// The same call on the same tree gives the gravity term bit for bit.
	grav, _, _ := s.tree.AccelAllGrouped(cfg.GravTheta, cfg.GravEps, false, gravity.Float64, cfg.Workers)
	var accMax, dudtMax, dnuMax float64
	for i := 0; i < n; i++ {
		accMax = math.Max(accMax, acc[i].Norm())
		dudtMax = math.Max(dudtMax, math.Abs(dudt[i]))
		dnuMax = math.Max(dnuMax, math.Abs(dnu[i]))
	}
	if accMax == 0 || dudtMax == 0 || dnuMax == 0 || maxDiffOverH2 == 0 {
		t.Fatalf("a term is switched off: max acc %v dudt %v dnu %v D/h^2 %v", accMax, dudtMax, dnuMax, maxDiffOverH2)
	}
	for i := 0; i < n; i++ {
		if d := s.acc[i].Sub(grav[i]).Sub(acc[i]).Norm(); d > 1e-12*accMax {
			t.Fatalf("particle %d: hydro acceleration off by %v (max %v)", i, d, accMax)
		}
		if d := math.Abs(s.dudt[i] - dudt[i]); d > 1e-12*dudtMax {
			t.Fatalf("particle %d: dudt %v, brute force %v", i, s.dudt[i], dudt[i])
		}
		if d := math.Abs(s.dnu[i] - dnu[i]); d > 1e-12*dnuMax {
			t.Fatalf("particle %d: dnu %v, brute force %v", i, s.dnu[i], dnu[i])
		}
	}
	if relErr(s.maxDiffOverH2, maxDiffOverH2) > 1e-12 {
		t.Fatalf("max D/h^2 %v, brute force %v", s.maxDiffOverH2, maxDiffOverH2)
	}
	// The pair pass counts a neighbour once per pair it evaluates; the FLD
	// pass counts every body inside a support, the particle itself included.
	gathered := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if p.Pos[i].Dist(p.Pos[j]) <= 2*p.H[i] {
				gathered++
			}
		}
	}
	if got := o.Reg.Counter("sph.search.neighbors").Value(); got != int64(pairs+gathered) {
		t.Fatalf("sph.search.neighbors = %d, want %d pairs + %d gathered", got, pairs, gathered)
	}
}

// What the tree search finds inside each particle's support is, as a set,
// what the grid finds.
func TestNeighbourSetsEqualGrid(t *testing.T) {
	s := collapseState(t)
	p := s.P
	maxH := 0.0
	for _, h := range p.H {
		maxH = math.Max(maxH, h)
	}
	grid := BuildGrid(p.Pos, SupportRadius(maxH))
	s.ensureTree()
	bodies := s.tree.Bodies
	visited := 0
	s.Cfg.Workers = 1 // visited and t.Fatalf: the buckets one at a time
	s.eachBucket(func(b *htree.Cell, cand []htree.BodyRange) (int, int) {
		for k := b.Lo; k < b.Hi; k++ {
			i := bodies[k].ID
			visited++
			var got []int32
			for _, rg := range cand {
				for kj := rg.Lo; kj < rg.Hi; kj++ {
					if p.Pos[i].Sub(bodies[kj].Pos).Norm2() <= SupportRadius(p.H[i])*SupportRadius(p.H[i]) {
						got = append(got, int32(bodies[kj].ID))
					}
				}
			}
			want := grid.Neighbors(p.Pos, p.Pos[i], SupportRadius(p.H[i]), nil)
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("particle %d: tree search finds %v, grid %v", i, got, want)
			}
		}
		return 0, 0
	})
	if visited != p.N() {
		t.Fatalf("buckets hold %d of %d particles", visited, p.N())
	}
}

// A leaf is searched at most once per tree for the supports its search
// covers: forces evaluated again on the same tree and the same smoothing
// lengths walk nothing, and give the same bits.
func TestRepeatedForcesWalkNothing(t *testing.T) {
	s := collapseState(t)
	o := obs.New(false)
	s.SetObs(o)
	walks := o.Reg.Counter("sph.search.walks")
	s.computeForces()
	first := walks.Value()
	if first <= 0 || first > int64(len(s.leaves)) {
		t.Fatalf("first force evaluation: %d walks over %d leaves", first, len(s.leaves))
	}
	acc := append([]vec.V3(nil), s.acc...)
	dudt, dnu := append([]float64(nil), s.dudt...), append([]float64(nil), s.dnu...)
	s.computeForces()
	if got := walks.Value(); got != first {
		t.Fatalf("second force evaluation on the same tree and h: %d more walks", got-first)
	}
	if !reflect.DeepEqual(acc, s.acc) || !reflect.DeepEqual(dudt, s.dudt) || !reflect.DeepEqual(dnu, s.dnu) {
		t.Fatal("second force evaluation on the same tree and h differs from the first")
	}
}

// BenchmarkCollapseStep is one Step() per iteration at the configuration of
// bench/'s sph-collapse workload: 8000 particles, two workers. `make
// profile-sph` profiles it. nbr/cand is the share of distance tests that
// found a body inside the support tested for, walks/leaf the ball searches
// per leaf per step, refits/particle the particles per step whose support
// outgrew the candidates their first scan kept.
func BenchmarkCollapseStep(b *testing.B) {
	s := NewRotatingCollapse(RotatingCollapseOptions{N: 8000, Omega: 0.3, PressureDeficit: 0.85, Seed: 1})
	s.Cfg.Workers = 2
	o := obs.New(false)
	s.SetObs(o)
	leaves := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		leaves += len(s.leaves)
		s.Step()
	}
	c := func(name string) float64 { return float64(o.Reg.Counter(name).Value()) }
	b.ReportMetric(c("sph.search.neighbors")/c("sph.search.candidates"), "nbr/cand")
	b.ReportMetric(c("sph.search.walks")/float64(leaves), "walks/leaf")
	b.ReportMetric(c("sph.search.refits")/float64(b.N*s.P.N()), "refits/particle")
}

// eachBucket calls visit once per leaf bucket of s.tree with the body ranges
// of the leaf's ball search (Sim.search), over Cfg.Workers goroutines (on the
// caller's alone, in tree order, at one). The tested and found counts visit
// reports go to the sph.search counters.
func (s *Sim) eachBucket(visit func(b *htree.Cell, cand []htree.BodyRange) (tested, found int)) {
	s.fanOut(len(s.leaves), func(w *worker, li int) (int, int) {
		return visit(s.leaves[li], s.search(w, li).ranges)
	})
}

// twoPassDensity is the density pass before the single scan, the oracle of
// UpdateDensity: two passes over the leaves, every particle testing every
// candidate of its leaf's search at its current h in each. It leaves no
// neighbour record current.
func twoPassDensity(s *Sim) {
	p := s.P
	s.ensureTree()
	if s.tree == nil {
		return
	}
	clear(s.nbr)
	bodies, src := s.tree.Bodies, s.tree.Sources()
	eta := 0.5 * math.Cbrt(3*float64(s.Cfg.NNeighbors)/(4*math.Pi))
	for pass := 0; pass < 2; pass++ {
		s.eachBucket(func(b *htree.Cell, cand []htree.BodyRange) (tested, found int) {
			for k := b.Lo; k < b.Hi; k++ {
				i := bodies[k].ID
				xi, h := src[k].Pos, p.H[i]
				r2max := SupportRadius(h) * SupportRadius(h)
				rho := 0.0
				for _, rg := range cand {
					tested += rg.Hi - rg.Lo
					for kj := rg.Lo; kj < rg.Hi; kj++ {
						sj := &src[kj]
						dx, dy, dz := xi[0]-sj.Pos[0], xi[1]-sj.Pos[1], xi[2]-sj.Pos[2]
						if r2 := dx*dx + dy*dy + dz*dz; r2 <= r2max {
							found++
							rho += sj.Mass * W(math.Sqrt(r2), h)
						}
					}
				}
				p.Rho[i] = rho
				p.H[i] = eta * math.Cbrt(p.Mass[i]/rho)
			}
			return tested, found
		})
	}
	for i := range p.Pos {
		p.P[i] = s.Cfg.EOS.Pressure(p.Rho[i], p.U[i])
		p.Cs[i] = s.Cfg.EOS.SoundSpeed(p.Rho[i], p.U[i])
	}
}

// twoPassNeighbours is the FLD gather's candidate scan before the records,
// their oracle: every particle tests every candidate of its leaf's search at
// its h, and what lies inside its support becomes its record, current on
// this tree. It returns the diffusion coefficients that scan computed.
func twoPassNeighbours(s *Sim) []float64 {
	p, cfg := s.P, s.Cfg
	diffD := make([]float64, p.N())
	s.ensureTree()
	if s.tree == nil {
		return diffD
	}
	bodies, src := s.tree.Bodies, s.tree.Sources()
	s.eachBucket(func(b *htree.Cell, cand []htree.BodyRange) (tested, found int) {
		for k := b.Lo; k < b.Hi; k++ {
			i := bodies[k].ID
			xi, h := src[k].Pos, p.H[i]
			r2max := SupportRadius(h) * SupportRadius(h)
			e := p.Rho[i] * p.Enu[i]
			rec := nbrList{gen: s.gen, h: h}
			var grad vec.V3
			for _, rg := range cand {
				tested += rg.Hi - rg.Lo
				for kj := rg.Lo; kj < rg.Hi; kj++ {
					sj := &src[kj]
					rij := vec.V3{xi[0] - sj.Pos[0], xi[1] - sj.Pos[1], xi[2] - sj.Pos[2]}
					r2 := rij[0]*rij[0] + rij[1]*rij[1] + rij[2]*rij[2]
					if r2 > r2max {
						continue
					}
					rec.found++
					if r2 == 0 {
						continue
					}
					rec.src = append(rec.src, int32(kj))
					j := bodies[kj].ID
					r := math.Sqrt(r2)
					ej := p.Rho[j] * p.Enu[j]
					grad = grad.AddScaled(sj.Mass/p.Rho[j]*(ej-e)*DW(r, h)/r, rij)
				}
			}
			s.nbr[k] = rec
			found += rec.found
			if cfg.FLD != nil {
				diffD[i] = cfg.FLD.DiffusionCoeff(p.Rho[i], e, grad.Norm())
			}
		}
		return tested, found
	})
	return diffD
}

// atState returns a Sim over a copy of p with nothing computed from it yet:
// NewSim's density pass runs on another copy, and the tree it built is
// dropped, so the next pass builds one and searches every leaf from scratch.
func atState(cfg Config, p *Particles, workers int) *Sim {
	cfg.Workers = workers
	s := NewSim(cfg, cloneParticles(p))
	s.P, s.tree = cloneParticles(p), nil
	return s
}

// sameBits reports the first index at which two float slices differ bit for
// bit, or -1.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// matchOracle checks that two Sims at one state, s after the single-scan
// path and o after the oracle's (twoPassDensity, twoPassNeighbours, whose
// diffusion coefficients are diffD, then computeForces), agree bit for bit:
// rho, h, P, Cs, every neighbour record, and the forces.
func matchOracle(t *testing.T, what string, s, o *Sim, diffD []float64) {
	t.Helper()
	// s.diffD is indexed by tree position, the oracle's by particle.
	gotD := make([]float64, s.P.N())
	if s.tree != nil {
		for k, b := range s.tree.Bodies {
			gotD[b.ID] = s.diffD[k]
		}
	}
	for _, f := range []struct {
		name string
		a, b []float64
	}{
		{"rho", s.P.Rho, o.P.Rho}, {"h", s.P.H, o.P.H}, {"P", s.P.P, o.P.P}, {"Cs", s.P.Cs, o.P.Cs},
		{"dudt", s.dudt, o.dudt}, {"dnu", s.dnu, o.dnu}, {"diffD", gotD, diffD},
	} {
		if i := sameBits(f.a, f.b); i >= 0 {
			t.Fatalf("%s: %s differs from the two-pass oracle's at %d", what, f.name, i)
		}
	}
	for i := range s.acc {
		if s.acc[i] != o.acc[i] {
			t.Fatalf("%s: acc[%d] %v, two-pass oracle %v", what, i, s.acc[i], o.acc[i])
		}
	}
	if s.maxDiffOverH2 != o.maxDiffOverH2 {
		t.Fatalf("%s: max D/h^2 %v, two-pass oracle %v", what, s.maxDiffOverH2, o.maxDiffOverH2)
	}
	if s.tree == nil {
		return
	}
	for k := range s.tree.Bodies {
		got, want := s.nbr[k], o.nbr[k]
		if got.gen != s.gen || got.h != s.P.H[s.tree.Bodies[k].ID] {
			t.Fatalf("%s: record %d is stale after the force pass", what, k)
		}
		if got.found != want.found || !slices.Equal(got.src, want.src) {
			t.Fatalf("%s: record %d holds %d found, %v; two-pass oracle %d, %v",
				what, k, got.found, got.src, want.found, want.src)
		}
	}
}

// oracleStep runs the oracle path on o: the two-pass density, then the
// candidate scan, then the force pass on the records it made.
func oracleStep(o *Sim) []float64 {
	twoPassDensity(o)
	diffD := twoPassNeighbours(o)
	o.computeForces()
	return diffD
}

// The single scan and its records give what two full passes and a scan per
// force pass give, bit for bit, for any worker count: on a collapse in
// progress, on tiny and coincident sets, and with every smoothing length
// halved (most supports outgrow the first search: the refit path) or
// doubled.
func TestSingleScanMatchesTwoPass(t *testing.T) {
	base := NewRotatingCollapse(RotatingCollapseOptions{N: 500, Omega: 0.3, PressureDeficit: 0.85, Seed: 4})
	for i := 0; i < 3; i++ {
		base.Step()
	}
	scaled := func(f float64) *Particles {
		p := cloneParticles(base.P)
		for i := range p.H {
			p.H[i] *= f
		}
		return p
	}
	a := vec.V3{0.5, 0.25, -0.125}
	pile := make([]vec.V3, 50)
	for i := range pile {
		pile[i] = a
	}
	type state struct {
		name      string
		cfg       Config
		p         *Particles
		minRefits int64
	}
	states := []state{
		{"collapse", base.Cfg, base.P, 0},
		{"h halved", base.Cfg, scaled(0.5), 100},
		{"h doubled", base.Cfg, scaled(2), 0},
	}
	for _, pos := range [][]vec.V3{nil, {a}, {a, {-0.5, 0.75, 0.375}}, {a, {-0.5, 0.75, 0.375}, a}, pile} {
		s := tinySim(pos)
		states = append(states, state{fmt.Sprintf("%d particles", len(pos)), s.Cfg, s.P, 0})
	}
	for _, st := range states {
		for _, workers := range []int{1, 2, 4, 7} {
			what := fmt.Sprintf("%s, workers=%d", st.name, workers)
			s, o := atState(st.cfg, st.p, workers), atState(st.cfg, st.p, workers)
			obsS := obs.New(false)
			s.SetObs(obsS)
			s.UpdateDensity()
			s.computeForces()
			diffD := oracleStep(o)
			matchOracle(t, what, s, o, diffD)
			if got := obsS.Reg.Counter("sph.search.refits").Value(); got < st.minRefits {
				t.Fatalf("%s: %d refits, want the refit path taken at least %d times", what, got, st.minRefits)
			}
		}
	}
}

// A record is trusted only while it is current: whatever a caller does
// between the density pass and the force pass, the forces are the oracle's
// bit for bit.
func TestStaleRecordsMatchTwoPass(t *testing.T) {
	base := collapseState(t)
	for _, tc := range []struct {
		name string
		// between runs after the density pass and before the force pass.
		between func(s *Sim)
		// density and forces are the passes run at either end.
		density func(s *Sim)
		forces  func(s *Sim)
	}{
		{name: "one h raised", between: func(s *Sim) { s.P.H[17] *= 1.4 }},
		{name: "one particle moved", between: func(s *Sim) {
			s.P.Pos[42] = s.P.Pos[42].Add(vec.V3{-0.03, 0.02, 0.04})
		}},
		{name: "density twice", density: func(s *Sim) { s.UpdateDensity(); s.UpdateDensity() }},
		{name: "forces twice", forces: func(s *Sim) { s.computeForces(); s.computeForces() }},
	} {
		for _, workers := range []int{1, 3} {
			what := fmt.Sprintf("%s, workers=%d", tc.name, workers)
			s, o := atState(base.Cfg, base.P, workers), atState(base.Cfg, base.P, workers)
			if tc.density != nil {
				tc.density(s)
				twoPassDensity(o)
				twoPassDensity(o)
			} else {
				s.UpdateDensity()
				twoPassDensity(o)
			}
			if tc.between != nil {
				tc.between(s)
				tc.between(o)
			}
			if tc.forces != nil {
				tc.forces(s)
			} else {
				s.computeForces()
			}
			diffD := twoPassNeighbours(o)
			o.computeForces()
			matchOracle(t, what, s, o, diffD)
		}
	}
}

// FuzzDensityScan runs small particle sets through the single scan and the
// two-pass oracle: each three bytes are a particle on a lattice of spacing
// 1/64 (so coincident particles are common), hExp scales every smoothing
// length by 2^(hExp/16) before the passes.
func FuzzDensityScan(f *testing.F) {
	a, b := []byte{32, 16, 0xf8}, []byte{0xe0, 48, 24} // TestTinyAndCoincidentSets' a and b
	for _, seed := range [][]byte{nil, a, slices.Concat(a, b), slices.Concat(a, a), slices.Concat(a, b, a)} {
		f.Add(seed, int8(0))
	}
	f.Add(slices.Concat(a, b, a), int8(-40))
	f.Fuzz(func(t *testing.T, coords []byte, hExp int8) {
		pos := make([]vec.V3, min(len(coords)/3, 64))
		for i := range pos {
			for d := 0; d < 3; d++ {
				pos[i][d] = float64(int8(coords[3*i+d])) / 64
			}
		}
		base := tinySim(pos)
		for i := range base.P.H {
			base.P.H[i] *= math.Exp2(float64(hExp) / 16)
		}
		s, o := atState(base.Cfg, base.P, 2), atState(base.Cfg, base.P, 2)
		s.UpdateDensity()
		s.computeForces()
		diffD := oracleStep(o)
		matchOracle(t, "fuzzed set", s, o, diffD)
	})
}
