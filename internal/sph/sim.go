package sph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"spacesim/internal/gravity"
	"spacesim/internal/htree"
	"spacesim/internal/obs"
	"spacesim/internal/par"
	"spacesim/internal/vec"
)

// Particles is the SPH particle state in structure-of-arrays layout.
type Particles struct {
	Pos  []vec.V3
	Vel  []vec.V3
	Mass []float64
	U    []float64 // specific thermal energy
	Enu  []float64 // specific neutrino energy
	H    []float64 // smoothing length
	Rho  []float64
	P    []float64
	Cs   []float64
}

// N returns the particle count.
func (p *Particles) N() int { return len(p.Pos) }

// Config holds the physics and numerics parameters (code units G = 1).
type Config struct {
	EOS *EOS
	FLD *FLD
	// NNeighbors is the target neighbor count (default 50).
	NNeighbors int
	// AlphaVisc/BetaVisc are the Monaghan viscosity coefficients.
	AlphaVisc, BetaVisc float64
	// GravEps is the gravitational softening; GravTheta the tree opening
	// parameter.
	GravEps   float64
	GravTheta float64
	// CFL is the timestep safety factor.
	CFL float64
	// Workers bounds the host goroutines of the grouped force walk, every
	// pass of the step over leaves or particles and the apply of the hydro
	// pairs (<= 0 means GOMAXPROCS). Results are bit-identical for any
	// value: each goroutine of the apply adds, in record order, only the
	// contributions to its own span of particles, so every sum is taken in
	// the order of a serial pass.
	Workers int
}

// DefaultConfig returns standard collapse-run parameters.
func DefaultConfig(eos *EOS, fld *FLD) Config {
	return Config{
		EOS: eos, FLD: fld,
		NNeighbors: 50,
		AlphaVisc:  1.0, BetaVisc: 2.0,
		GravEps: 0.01, GravTheta: 0.6,
		CFL: 0.25,
	}
}

// Sim is one SPH simulation.
type Sim struct {
	Cfg  Config
	P    *Particles
	Time float64
	// Radiated accumulates neutrino energy lost from the gas (for the
	// energy budget).
	Radiated float64

	acc  []vec.V3
	dudt []float64
	dnu  []float64
	// maxDiffOverH2 is max_i D_i/h_i^2 from the last force evaluation,
	// the explicit-diffusion stability bound.
	maxDiffOverH2 float64

	// tree is the one tree over the particle positions (see ensureTree), nil
	// when there are no particles, and gen counts the trees built. arena
	// holds its reusable build storage so per-step rebuilds stop allocating.
	// leaves are its leaf buckets in tree order and searched[i] the last ball
	// search of leaves[i] (search); work holds the state of each pass
	// goroutine.
	tree     *htree.Tree
	gen      uint64
	arena    htree.Arena
	leaves   []*htree.Cell
	searched []leafSearch
	work     []worker

	// nbr[k] is the neighbour record of particle tree.Bodies[k].ID, made by
	// UpdateDensity or, when stale, by computeForces' FLD gather.
	nbr []nbrList

	// computeForces' per-step state, kept for its capacity, all indexed by
	// tree position: the particle rows the passes read, the diffusion
	// coefficients and the sums of the pair apply; and, per leaf, the pairs
	// evaluated from its particles' side.
	rows  []row
	diffD []float64
	sums  []accum
	pairs []leafPairs

	// observation handles (no-ops until SetObs).
	o      *obs.Obs
	cSteps *obs.Counter
	// cCand counts the neighbour search's distance tests: one per candidate
	// a scan of a leaf's search tested and one per entry of a kept run that
	// a density iteration or a record read; the FLD gather tests nothing for
	// a particle whose record is current, and the pair pass one per entry of
	// the record. cNbr counts the bodies inside the support tested for, once
	// per density iteration, FLD gather and evaluated pair: the ratio is the
	// share of the search's work that was useful. cWalks counts the leaf
	// ball searches, cRefits the candidate scans beyond a particle's first
	// of a density pass: those whose support outgrew their kept run after
	// the first iteration, and those the FLD gather records again because
	// their record is stale.
	cCand, cNbr, cWalks, cRefits *obs.Counter
	prog                         *obs.Progress
}

// SetObs attaches an observation handle: a step counter, the neighbour
// search's walk, refit, candidate and neighbour counters, the run-progress
// publisher, and, when retention is on, a host-time row with the
// per-step phase spans (SPH runs on the host, not inside the virtual machine
// model).
func (s *Sim) SetObs(o *obs.Obs) {
	s.o = o
	s.cSteps = o.Reg.Counter("sph.steps")
	s.cCand = o.Reg.Counter("sph.search.candidates")
	s.cNbr = o.Reg.Counter("sph.search.neighbors")
	s.cWalks = o.Reg.Counter("sph.search.walks")
	s.cRefits = o.Reg.Counter("sph.search.refits")
	s.prog = o.Progress()
}

// span opens a host-time span on the simulation's trace row; the returned
// closure ends it (a no-op without retention).
func (s *Sim) span(name string) func() {
	if s.o == nil || s.o.Events == nil {
		return func() {}
	}
	h0 := s.o.HostNow()
	return func() { s.o.HostSpan(obs.HostSPH, "sph", name, h0, s.o.HostNow()) }
}

// NewSim wraps particle state with a configuration and initializes
// smoothing lengths and densities.
func NewSim(cfg Config, p *Particles) *Sim {
	s := &Sim{Cfg: cfg, P: p}
	n := p.N()
	s.acc = make([]vec.V3, n)
	s.dudt = make([]float64, n)
	s.dnu = make([]float64, n)
	s.nbr = make([]nbrList, n)
	if len(p.H) == 0 && n > 0 {
		p.H = make([]float64, n)
		// initial guess from mean interparticle spacing
		_, size := htree.BoundingCube(p.Pos)
		d := size / math.Cbrt(float64(n))
		for i := range p.H {
			p.H[i] = 1.2 * d
		}
	}
	if len(p.Rho) == 0 {
		p.Rho = make([]float64, n)
		p.P = make([]float64, n)
		p.Cs = make([]float64, n)
	}
	s.UpdateDensity()
	return s
}

// UpdateDensity recomputes smoothing lengths (two fixed-point iterations
// toward the target neighbor count) and densities, and records each
// particle's neighbours at the final h for the force pass. Each particle
// gathers within its own support 2h and writes only its own rho, h and
// record, so the buckets run on Cfg.Workers goroutines, and so does the
// equation of state after them.
//
// A particle tests the candidates of its leaf's search once: the first
// iteration keeps those within the search's support, and the second
// iteration and the record read the kept run. A particle whose new support
// outgrows its run after the first iteration scans again, against the one
// search of its leaf at the leaf's largest new support; one whose final
// support outgrows it is left without a record, for computeForces to search
// as it would any stale one.
func (s *Sim) UpdateDensity() {
	defer s.span("density")()
	p := s.P
	n := p.N()
	s.ensureTree()
	if s.tree == nil {
		return
	}
	bodies := s.tree.Bodies
	// support 2h holds NN neighbors: (4pi/3)(2h)^3 rho/m = NN
	eta := 0.5 * math.Cbrt(3*float64(s.Cfg.NNeighbors)/(4*math.Pi))
	for w := range s.work {
		s.work[w].nbr = s.work[w].nbr[:0]
	}
	phase("density", func() {
		s.fanOut(len(s.leaves), func(w *worker, li int) (tested, found int) {
			b := s.leaves[li]
			w.kept, w.runs = w.kept[:0], w.runs[:0]
			c := s.search(w, li)
			for k := b.Lo; k < b.Hi; k++ {
				i := bodies[k].ID
				r, nt := s.keep(w, k, c.ranges, c.support)
				rho, nr, nf := s.density(w.kept[r.lo:r.hi], p.H[i])
				tested, found = tested+nt+nr, found+nf
				p.Rho[i] = rho
				// adaptive h: the kernel support 2h encloses ~NNeighbors
				p.H[i] = eta * math.Cbrt(p.Mass[i]/rho)
				w.runs = append(w.runs, r)
			}
			c = s.search(w, li)
			refits := 0
			for k := b.Lo; k < b.Hi; k++ {
				i, r := bodies[k].ID, &w.runs[k-b.Lo]
				if !(SupportRadius(p.H[i]) <= r.cover) {
					var nt int
					*r, nt = s.keep(w, k, c.ranges, c.support)
					tested += nt
					refits++
				}
				rho, nr, nf := s.density(w.kept[r.lo:r.hi], p.H[i])
				tested, found = tested+nr, found+nf
				p.Rho[i] = rho
				p.H[i] = eta * math.Cbrt(p.Mass[i]/rho)
				s.nbr[k] = nbrList{}
				if SupportRadius(p.H[i]) <= r.cover {
					s.nbr[k] = s.record(w, w.kept[r.lo:r.hi], p.H[i])
					tested += r.hi - r.lo
				}
			}
			s.cRefits.Add(int64(refits))
			return tested, found
		})
		eos := s.Cfg.EOS
		s.forEach(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				p.P[i] = eos.Pressure(p.Rho[i], p.U[i])
				p.Cs[i] = eos.soundSpeed(p.Rho[i], p.P[i])
			}
		})
	})
}

// computeForces fills acc (pressure + viscosity + gravity), dudt, and the
// neutrino-field derivatives.
//
// Every pass reads in tree order: a row per tree position holds what the
// passes read of a particle, the per-particle factors of the pair terms
// among it, and the FLD gather, the pair pass and the apply read a
// partner's row at its tree position. The apply sums in tree order; the sums
// are scattered to particle order once.
func (s *Sim) computeForces() {
	defer s.span("forces")()
	p := s.P
	cfg := s.Cfg
	s.maxDiffOverH2 = 0
	s.ensureTree()
	if s.tree == nil {
		return
	}
	bodies, src := s.tree.Bodies, s.tree.Sources()
	n := len(bodies)
	s.rows = slices.Grow(s.rows[:0], n)[:n]
	s.diffD = slices.Grow(s.diffD[:0], n)[:n]
	s.sums = slices.Grow(s.sums[:0], n)[:n]
	rows, diffD, sums := s.rows, s.diffD, s.sums

	// The FLD gather: energy density and limited diffusion coefficient, a
	// gather over each particle's own support like the density iterations,
	// over the neighbours UpdateDensity recorded at the final h. A particle
	// whose record is stale (the tree or its h changed since, or its final
	// support outgrew its kept run) is recorded again from its leaf's search
	// first. The pair pass reads the same records.
	for w := range s.work {
		s.work[w].pairs = s.work[w].pairs[:0]
	}
	phase("fld", func() {
		gth := cfg.EOS.GammaTh - 1
		s.forEach(n, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				i := bodies[k].ID
				rho := p.Rho[i]
				rows[k] = row{
					vel: p.Vel[i], h: p.H[i], rho: rho, cs: p.Cs[i],
					pOverRho2: p.P[i] / (rho * rho), uTh: gth * p.U[i] / rho,
					mOverRho: src[k].Mass / rho, e: rho * p.Enu[i],
					id: int32(i),
				}
				diffD[k] = 0
			}
		})
		s.fanOut(len(s.leaves), func(w *worker, li int) (tested, found int) {
			b := s.leaves[li]
			var c *leafSearch
			refits := 0
			for k := b.Lo; k < b.Hi; k++ {
				ri := &rows[k]
				xi, h := src[k].Pos, ri.h
				nb := &s.nbr[k]
				if nb.gen != s.gen || nb.h != h {
					if c == nil {
						c = s.search(w, li)
					}
					w.kept = w.kept[:0]
					r, nt := s.keep(w, k, c.ranges, SupportRadius(h))
					*nb = s.record(w, w.kept[r.lo:r.hi], h)
					tested += nt + r.hi - r.lo
					refits++
				}
				found += nb.found
				if cfg.FLD == nil {
					continue
				}
				// gradient magnitude estimate via SPH
				var grad vec.V3
				for _, kj := range nb.src {
					sj, rj := &src[kj], &rows[kj]
					rij := vec.V3{xi[0] - sj.Pos[0], xi[1] - sj.Pos[1], xi[2] - sj.Pos[2]}
					r := math.Sqrt(rij[0]*rij[0] + rij[1]*rij[1] + rij[2]*rij[2])
					grad = grad.AddScaled(rj.mOverRho*(rj.e-ri.e)*DW(r, h)/r, rij)
				}
				diffD[k] = cfg.FLD.DiffusionCoeff(ri.rho, ri.e, grad.Norm())
			}
			s.cRefits.Add(int64(refits))
			return tested, found
		})
	})
	for k := range diffD {
		if v := diffD[k] / (rows[k].h * rows[k].h); v > s.maxDiffOverH2 {
			s.maxDiffOverH2 = v
		}
	}

	// Pair pass: a pair interacts when r < h_i + h_j and is evaluated once,
	// from the side of the particle with the larger h (ties go to the lower
	// index): h_j <= h_i puts the partner inside that particle's own support
	// 2 h_i, so it is on the particle's FLD gather list and no cell needs to
	// know the largest h below it. Leaves fan out over Cfg.Workers to
	// evaluate their pairs into records.
	s.pairs = slices.Grow(s.pairs[:0], len(s.leaves))[:len(s.leaves)]
	phase("pairs", func() {
		s.fanOut(len(s.leaves), func(w *worker, li int) (tested, found int) {
			b, lo := s.leaves[li], len(w.pairs)
			reach := leafPairs{lo: b.Lo, hi: b.Hi - 1}
			for k := b.Lo; k < b.Hi; k++ {
				ri := &rows[k]
				xi, hi := src[k].Pos, ri.h
				tested += len(s.nbr[k].src)
				for _, kj := range s.nbr[k].src {
					rj := &rows[kj]
					hj := rj.h
					if hj > hi || (hj == hi && rj.id < ri.id) {
						continue // the partner's side evaluates this pair
					}
					sj := &src[kj]
					rij := vec.V3{xi[0] - sj.Pos[0], xi[1] - sj.Pos[1], xi[2] - sj.Pos[2]}
					r := math.Sqrt(rij[0]*rij[0] + rij[1]*rij[1] + rij[2]*rij[2])
					hm := 0.5 * (hi + hj)
					if r >= SupportRadius(hm) {
						continue
					}
					found++
					w.pairs = append(w.pairs, pairRec{})
					s.pairTerms(&w.pairs[len(w.pairs)-1], k, int(kj), rij, r, hm)
					reach.lo, reach.hi = min(reach.lo, int(kj)), max(reach.hi, int(kj))
				}
			}
			reach.recs = w.pairs[lo:]
			s.pairs[li] = reach
			return tested, found
		})
	})

	// The apply adds every record to both partners. It is split by
	// destination: the tree positions fall into one span per goroutine
	// (par.Width), and the call for a span reads, in order, every leaf's
	// records that reach it, adding only the contributions to its own
	// particles, so each sum is taken in record order however the particles
	// are split. The sums are then scattered to particle order with the neutrino emission: thermal
	// energy converts to neutrino energy in the hot dense core.
	phase("pair-apply", func() {
		fld := cfg.FLD != nil
		parts := par.Width(cfg.Workers, n)
		par.For(parts, cfg.Workers, func(_, part int) {
			lo, hi := part*n/parts, (part+1)*n/parts
			clear(sums[lo:hi])
			span := uint(hi - lo)
			for _, leaf := range s.pairs {
				if leaf.hi < lo || leaf.lo >= hi {
					continue
				}
				for q := range leaf.recs {
					rec := &leaf.recs[q]
					i, j := int(rec.i), int(rec.j)
					if uint(i-lo) < span {
						a, mj := &sums[i], src[j].Mass
						a.acc = a.acc.AddScaled(-mj*rec.term, rec.gradW)
						a.dudt += mj * rec.work
						if fld && diffD[i] > 0 && diffD[j] > 0 {
							a.dnu += mj * rec.flux
						}
					}
					if uint(j-lo) < span {
						a, mi := &sums[j], src[i].Mass
						a.acc = a.acc.AddScaled(mi*rec.term, rec.gradW)
						a.dudt += mi * rec.work
						if fld && diffD[i] > 0 && diffD[j] > 0 {
							a.dnu -= mi * rec.flux
						}
					}
				}
			}
		})
		f := cfg.FLD
		s.forEach(n, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				i, a := bodies[k].ID, &sums[k]
				s.acc[i], s.dudt[i], s.dnu[i] = a.acc, a.dudt, a.dnu
				if f != nil && p.Rho[i] > f.RhoEmit && p.U[i] > 0 {
					rate := f.EmissRate * (p.Rho[i] / f.RhoEmit) * (p.Rho[i] / f.RhoEmit)
					s.dudt[i] -= rate * p.U[i]
					s.dnu[i] += rate * p.U[i]
				}
			}
		})
	})

	// self-gravity on the same tree
	phase("gravity", func() {
		gacc, _, _ := s.tree.AccelAllGrouped(cfg.GravTheta, cfg.GravEps, false, gravity.Float64, cfg.Workers)
		s.forEach(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				s.acc[i] = s.acc[i].Add(gacc[i])
			}
		})
	})
}

// row is what the passes of computeForces read of one particle, stored at
// its tree position: its smoothing length and index in Particles (all the
// pair pass reads of most partners), its velocity, density and sound speed,
// the per-particle factors of the pair terms and the FLD gather
// (P/rho^2, the thermal (gamma_th-1) u/rho, m/rho and the neutrino energy
// density rho e_nu).
type row struct {
	h                           float64
	id                          int32
	vel                         vec.V3
	rho, cs                     float64
	pOverRho2, uTh, mOverRho, e float64
}

// accum is one particle's sums of the pair apply: acceleration, du/dt and
// de_nu/dt.
type accum struct {
	acc       vec.V3
	dudt, dnu float64
}

// leafPairs is the pairs evaluated from one leaf's side and the span
// [lo, hi] of the tree positions they name, the leaf's own included.
type leafPairs struct {
	recs   []pairRec
	lo, hi int
}

// pairRec is one evaluated pair, i the tree position of the particle whose
// side evaluated it and j its partner's, holding what the apply scales by
// the partners' masses: the kernel gradient, the pressure and viscosity term
// along it, the work on u and the neutrino flux.
type pairRec struct {
	i, j             int32
	gradW            vec.V3
	term, work, flux float64
}

// pairTerms evaluates into rec the interaction of the particles at tree
// positions k and kj, a distance r = |rij| apart with rij = x_k - x_kj and
// mean smoothing length hm: pressure and viscous acceleration, their work on
// u, and the neutrino flux between them, from their rows and s.diffD. Every
// term is symmetric or antisymmetric under exchange of the two, so it does
// not matter which side calls. It reads the rows and writes only rec, so
// pairs may be evaluated concurrently.
func (s *Sim) pairTerms(rec *pairRec, k, kj int, rij vec.V3, r, hm float64) {
	cfg := &s.Cfg
	a, b := &s.rows[k], &s.rows[kj]
	dw := DW(r, hm)
	gradW := rij.Scale(dw / r)
	vij := a.vel.Sub(b.vel)

	// Monaghan artificial viscosity for approaching pairs
	pi := 0.0
	vdotr := vij.Dot(rij)
	if vdotr < 0 {
		mu := hm * vdotr / (r*r + 0.01*hm*hm)
		cm := 0.5 * (a.cs + b.cs)
		rhom := 0.5 * (a.rho + b.rho)
		pi = (-cfg.AlphaVisc*cm*mu + cfg.BetaVisc*mu*mu) / rhom
	}
	*rec = pairRec{i: int32(k), j: int32(kj), gradW: gradW}
	rec.term = a.pOverRho2 + b.pOverRho2 + pi
	// Only the thermal pressure and viscosity do work on u: the cold branch
	// is barotropic, its energy is a function of rho alone and is accounted
	// separately (EOS.ColdEnergy).
	rec.work = 0.5 * (a.uTh + b.uTh + pi) * vij.Dot(gradW)

	// FLD diffusion between the pair (Cleary-Monaghan form)
	if di, dj := s.diffD[k], s.diffD[kj]; cfg.FLD != nil && di > 0 && dj > 0 {
		dbar := 4 * di * dj / (di + dj)
		f := -dw / r // >= 0
		rec.flux = dbar * f / (a.rho * b.rho) * (b.e - a.e)
	}
}

// TimestepCFL returns the Courant-limited timestep.
func (s *Sim) TimestepCFL() float64 {
	p := s.P
	dt := math.Inf(1)
	for i := 0; i < p.N(); i++ {
		sig := p.Cs[i] + p.Vel[i].Norm()
		if sig <= 0 {
			continue
		}
		if d := p.H[i] / sig; d < dt {
			dt = d
		}
	}
	if math.IsInf(dt, 1) {
		dt = 1e-3
	}
	return s.Cfg.CFL * dt
}

// Step advances the system by one adaptive step (symplectic Euler with
// Courant, acceleration and diffusion limits) and returns dt.
func (s *Sim) Step() float64 {
	endStep := s.span("step")
	defer func() {
		endStep()
		s.cSteps.Inc()
	}()
	p := s.P
	s.computeForces()
	dt := s.TimestepCFL()
	for i := 0; i < p.N(); i++ {
		if a := s.acc[i].Norm(); a > 0 {
			if d := 0.3 * math.Sqrt(p.H[i]/a); d < dt {
				dt = d
			}
		}
	}
	if s.maxDiffOverH2 > 0 {
		if d := 0.2 / s.maxDiffOverH2; d < dt {
			dt = d
		}
	}
	n := p.N()
	for i := 0; i < n; i++ {
		p.Vel[i] = p.Vel[i].AddScaled(dt, s.acc[i])
		p.Pos[i] = p.Pos[i].AddScaled(dt, p.Vel[i])
		p.U[i] += dt * s.dudt[i]
		if p.U[i] < 0 {
			p.U[i] = 0
		}
		p.Enu[i] += dt * s.dnu[i]
		if p.Enu[i] < 0 {
			p.Enu[i] = 0
		}
	}
	s.Time += dt
	s.UpdateDensity()
	return dt
}

// Diagnostics aggregates conservation quantities.
type Diagnostics struct {
	Kinetic, Thermal, Neutrino, Potential float64
	Momentum, AngMom                      vec.V3
	MaxRho                                float64
	CentralVr                             float64 // mass-weighted radial velocity of the densest 10%
}

// Total returns the full energy budget.
func (d Diagnostics) Total() float64 {
	return d.Kinetic + d.Thermal + d.Neutrino + d.Potential
}

// Diag computes the current diagnostics (potential by tree, theta=0.3); all
// zero when there are no particles.
func (s *Sim) Diag() Diagnostics {
	p := s.P
	var d Diagnostics
	s.ensureTree()
	if s.tree == nil {
		return d
	}
	_, pot, _ := s.tree.AccelAllGrouped(0.3, s.Cfg.GravEps, false, gravity.Float64, s.Cfg.Workers)
	for i := 0; i < p.N(); i++ {
		m := p.Mass[i]
		d.Kinetic += 0.5 * m * p.Vel[i].Norm2()
		d.Thermal += m * (p.U[i] + s.Cfg.EOS.ColdEnergy(p.Rho[i]))
		d.Neutrino += m * p.Enu[i]
		d.Potential += 0.5 * m * pot[i]
		d.Momentum = d.Momentum.AddScaled(m, p.Vel[i])
		d.AngMom = d.AngMom.Add(p.Pos[i].Cross(p.Vel[i]).Scale(m))
	}
	d.MaxRho, d.CentralVr = s.coreState()
	return d
}

// coreState returns the peak density and the mass-weighted radial velocity of
// the densest tenth of the particles, the two diagnostics that detect the
// bounce; zero when there are no particles.
func (s *Sim) coreState() (maxRho, centralVr float64) {
	p := s.P
	if p.N() == 0 {
		return 0, 0
	}
	dense := make([]rhoi, p.N())
	for i := range dense {
		if p.Rho[i] > maxRho {
			maxRho = p.Rho[i]
		}
		dense[i] = rhoi{p.Rho[i], i}
	}
	// central radial velocity: densest decile
	sortByRho(dense)
	top := dense[:max(1, len(dense)/10)]
	var vr, m float64
	for _, e := range top {
		i := e.i
		r := p.Pos[i].Norm()
		if r == 0 {
			continue
		}
		vr += p.Mass[i] * p.Vel[i].Dot(p.Pos[i]) / r
		m += p.Mass[i]
	}
	if m > 0 {
		centralVr = vr / m
	}
	return maxRho, centralVr
}

// rhoi pairs a density with its particle index for the central-velocity
// diagnostic.
type rhoi struct {
	rho float64
	i   int
}

// sortByRho orders densest-first with ties broken by particle index: the
// unstable rho-only sort let equal-density particles (common in uniform
// shock-tube initial states) land in arbitrary order, making the
// densest-decile diagnostic depend on sort internals.
func sortByRho(xs []rhoi) {
	sort.Slice(xs, func(a, b int) bool {
		return xs[a].rho > xs[b].rho || (xs[a].rho == xs[b].rho && xs[a].i < xs[b].i)
	})
}

// AngularMomentumByAngle bins the specific angular momentum |j| of mass by
// polar angle from the rotation (z) axis: bin 0 is the pole, the last bin
// the equator — the Figure 8 observable.
func (s *Sim) AngularMomentumByAngle(bins int) []float64 {
	p := s.P
	jsum := make([]float64, bins)
	msum := make([]float64, bins)
	for i := 0; i < p.N(); i++ {
		r := p.Pos[i].Norm()
		if r == 0 {
			continue
		}
		cosTheta := math.Abs(p.Pos[i][2]) / r
		theta := math.Acos(math.Min(1, cosTheta)) // 0 at pole, pi/2 at equator
		b := int(theta / (math.Pi / 2) * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		// specific angular momentum about the rotation (z) axis -- the
		// quantity Figure 8 colors by
		jz := p.Pos[i][0]*p.Vel[i][1] - p.Pos[i][1]*p.Vel[i][0]
		jsum[b] += p.Mass[i] * math.Abs(jz)
		msum[b] += p.Mass[i]
	}
	out := make([]float64, bins)
	for b := range out {
		if msum[b] > 0 {
			out[b] = jsum[b] / msum[b]
		}
	}
	return out
}

// RotatingCollapseOptions configures the Figure 8 initial model.
type RotatingCollapseOptions struct {
	N int
	// Omega is the solid-body rotation rate about z.
	Omega float64
	// PressureDeficit is the fraction of hydrostatic support removed to
	// trigger collapse (0.5 = half supported).
	PressureDeficit float64
	// RhoNucOverMean sets the EOS stiffening density relative to the
	// initial mean density (the bounce threshold, scaled down from the
	// physical 10^4-10^5 so modest particle counts reach it).
	RhoNucOverMean float64
	Seed           int64
}

// NewRotatingCollapse builds the rotating pre-collapse core: a uniform
// sphere of mass 1 and radius 1 (code units), under-pressured by the given
// deficit, in solid-body rotation — the initial model whose collapse
// channels angular momentum to the equator (Figure 8).
func NewRotatingCollapse(opt RotatingCollapseOptions) *Sim {
	if opt.N == 0 {
		opt.N = 2000
	}
	if opt.RhoNucOverMean == 0 {
		opt.RhoNucOverMean = 8
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	n := opt.N
	p := &Particles{
		Pos:  make([]vec.V3, n),
		Vel:  make([]vec.V3, n),
		Mass: make([]float64, n),
		U:    make([]float64, n),
		Enu:  make([]float64, n),
	}
	for i := 0; i < n; i++ {
		// uniform sphere via rejection
		for {
			v := vec.V3{2*rng.Float64() - 1, 2*rng.Float64() - 1, 2*rng.Float64() - 1}
			if v.Norm2() <= 1 {
				p.Pos[i] = v
				break
			}
		}
		p.Mass[i] = 1.0 / float64(n)
		// solid-body rotation about z
		p.Vel[i] = vec.V3{-opt.Omega * p.Pos[i][1], opt.Omega * p.Pos[i][0], 0}
	}
	// remove the sampling-noise center-of-mass position and velocity
	var com, vcom vec.V3
	for i := 0; i < n; i++ {
		com = com.AddScaled(p.Mass[i], p.Pos[i])
		vcom = vcom.AddScaled(p.Mass[i], p.Vel[i])
	}
	for i := 0; i < n; i++ {
		p.Pos[i] = p.Pos[i].Sub(com)
		p.Vel[i] = p.Vel[i].Sub(vcom)
	}
	rhoMean := 1.0 / (4.0 * math.Pi / 3.0)
	// hydrostatic central pressure of a uniform sphere: (3/8pi) GM^2/R^4.
	// The soft branch uses Gamma1 = 1.3 — below the 4/3 stability
	// threshold, as electron capture makes the real iron core — so the
	// pressure deficit deepens as the collapse proceeds instead of finding
	// a new equilibrium.
	const gamma1 = 1.3
	pc := 3.0 / (8 * math.Pi)
	k1 := (1 - opt.PressureDeficit) * pc / math.Pow(rhoMean, gamma1)
	eos := NewEOS(k1, opt.RhoNucOverMean*rhoMean, gamma1, 2.5, 5.0/3.0)
	fld := &FLD{C: 10, Kappa0: 40 / (opt.RhoNucOverMean * rhoMean), EmissRate: 0.5, RhoEmit: 5 * rhoMean}
	cfg := DefaultConfig(eos, fld)
	cfg.GravEps = 0.02
	return NewSim(cfg, p)
}

// RunUntilBounce advances the collapse until the core reaches nuclear
// density and the central radial velocity turns around (or maxSteps).
// It returns the step count and whether bounce was detected. It reads only
// the core's two diagnostics after each step, not the potential Diag walks
// the tree for.
func (s *Sim) RunUntilBounce(maxSteps int) (int, bool) {
	s.prog.SetTotal(maxSteps)
	s.prog.State("running")
	s.prog.Phase("sph-step")
	reachedNuc := false
	for step := 1; step <= maxSteps; step++ {
		s.Step()
		s.prog.StepDone(step, s.Time)
		maxRho, centralVr := s.coreState()
		if maxRho > s.Cfg.EOS.RhoNuc {
			reachedNuc = true
		}
		if reachedNuc && centralVr > 0 {
			s.prog.State("done")
			return step, true
		}
	}
	s.prog.State("done")
	return maxSteps, false
}

// String summarizes the simulation state.
func (s *Sim) String() string {
	d := s.Diag()
	return fmt.Sprintf("t=%.4f N=%d maxRho=%.3g E=%.4f", s.Time, s.P.N(), d.MaxRho, d.Total())
}
