package sph

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"spacesim/internal/gravity"
	"spacesim/internal/vec"
)

// Kernel normalization: the volume integral of W must be 1.
func TestKernelNormalization(t *testing.T) {
	h := 0.7
	dr := h / 400
	sum := 0.0
	for r := dr / 2; r < SupportRadius(h); r += dr {
		sum += 4 * math.Pi * r * r * W(r, h) * dr
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Fatalf("integral of W = %v", sum)
	}
}

func TestKernelSupportAndSign(t *testing.T) {
	h := 1.3
	if W(SupportRadius(h)+1e-9, h) != 0 || DW(SupportRadius(h)+1e-9, h) != 0 {
		t.Fatal("kernel must vanish outside support")
	}
	if W(0, h) <= 0 {
		t.Fatal("W(0) must be positive")
	}
	f := func(u float64) bool {
		r := math.Abs(math.Mod(u, 2)) * h
		return DW(r, h) <= 1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal("DW must be non-positive:", err)
	}
}

// DW is the derivative of W (finite-difference check).
func TestKernelDerivative(t *testing.T) {
	h := 0.9
	for _, r := range []float64{0.2, 0.7, 1.1, 1.7} {
		rr := r * h
		eps := 1e-6
		fd := (W(rr+eps, h) - W(rr-eps, h)) / (2 * eps)
		if math.Abs(fd-DW(rr, h)) > 1e-5 {
			t.Fatalf("r=%v: fd %v vs DW %v", r, fd, DW(rr, h))
		}
	}
}

func TestGridNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pos := make([]vec.V3, 500)
	for i := range pos {
		pos[i] = vec.V3{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	radius := 0.15
	g := BuildGrid(pos, radius)
	var nbr []int32
	for trial := 0; trial < 20; trial++ {
		p := pos[rng.Intn(len(pos))]
		nbr = g.Neighbors(pos, p, radius, nbr[:0])
		got := map[int32]bool{}
		for _, j := range nbr {
			got[j] = true
		}
		for j := range pos {
			want := pos[j].Sub(p).Norm() <= radius
			if want != got[int32(j)] {
				t.Fatalf("neighbor mismatch at %d: want %v", j, want)
			}
		}
	}
}

// Density of a uniform particle lattice must be near the analytic value.
func TestDensityUniform(t *testing.T) {
	var pos []vec.V3
	const k = 10
	for x := 0; x < k; x++ {
		for y := 0; y < k; y++ {
			for z := 0; z < k; z++ {
				pos = append(pos, vec.V3{float64(x), float64(y), float64(z)}.Scale(1.0/k))
			}
		}
	}
	n := len(pos)
	p := &Particles{Pos: pos, Vel: make([]vec.V3, n), Mass: make([]float64, n),
		U: make([]float64, n), Enu: make([]float64, n)}
	for i := range p.Mass {
		p.Mass[i] = 1.0 / float64(n)
	}
	eos := NewEOS(0.1, 100, 4.0/3.0, 2.5, 5.0/3.0)
	s := NewSim(DefaultConfig(eos, nil), p)
	// interior particles: expect rho ~ 1 (unit mass in unit volume)
	count, sum := 0, 0.0
	for i := range pos {
		interior := true
		for c := 0; c < 3; c++ {
			if pos[i][c] < 0.25 || pos[i][c] > 0.75 {
				interior = false
			}
		}
		if interior {
			sum += s.P.Rho[i]
			count++
		}
	}
	mean := sum / float64(count)
	if math.Abs(mean-1.0) > 0.08 {
		t.Fatalf("interior density = %v want ~1", mean)
	}
}

func TestEOSContinuityAndStiffening(t *testing.T) {
	eos := NewEOS(0.5, 2.0, 4.0/3.0, 2.5, 5.0/3.0)
	below := eos.Cold(2.0 - 1e-9)
	above := eos.Cold(2.0 + 1e-9)
	if math.Abs(below-above)/below > 1e-6 {
		t.Fatalf("pressure discontinuity at rhoNuc: %v vs %v", below, above)
	}
	// stiff branch grows much faster
	softSlope := eos.Cold(1.9) / eos.Cold(1.8)
	stiffSlope := eos.Cold(4.0) / eos.Cold(3.8)
	if stiffSlope <= softSlope {
		t.Fatal("stiff branch must steepen")
	}
	// thermal part adds pressure
	if eos.Pressure(1.0, 0.5) <= eos.Cold(1.0) {
		t.Fatal("thermal pressure missing")
	}
	if eos.SoundSpeed(1.0, 0.1) <= 0 {
		t.Fatal("sound speed must be positive")
	}
	// cold energy increases with density
	if eos.ColdEnergy(3.0) <= eos.ColdEnergy(1.0) {
		t.Fatal("cold energy must grow")
	}
}

// The Levermore-Pomraning limiter: 1/3 in the opaque limit, -> 0 like 1/R
// when transparent (so |F| <= cE).
func TestFluxLimiter(t *testing.T) {
	opaque, transparent := OpticalDepthRegimes()
	if math.Abs(opaque-1.0/3.0) > 1e-12 {
		t.Fatalf("opaque limit = %v want 1/3", opaque)
	}
	if transparent > 1e-8 {
		t.Fatalf("transparent limit = %v want ~0", transparent)
	}
	f := func(u float64) bool {
		r := math.Abs(math.Mod(u, 1e6))
		l := FluxLimiter(r)
		// bounded and causal: lambda <= 1/3 and lambda*R <= 1
		return l > 0 && l <= 1.0/3.0+1e-12 && l*r <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFLDCausality(t *testing.T) {
	fld := &FLD{C: 10, Kappa0: 5, EmissRate: 0.1, RhoEmit: 1}
	f := func(rho, e, g float64) bool {
		rho = 0.1 + math.Abs(math.Mod(rho, 10))
		e = 0.01 + math.Abs(math.Mod(e, 10))
		g = math.Abs(math.Mod(g, 1e4))
		return fld.FreeStreamBound(rho, e, g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// The headline physics test: a rotating under-pressured core collapses,
// reaches nuclear density, bounces, conserves momentum and angular
// momentum, keeps an acceptable energy budget, and channels specific
// angular momentum to the equator (Figure 8: the polar cone carries orders
// of magnitude less than the equatorial belt).
func TestRotatingCollapseBounceAndFig8(t *testing.T) {
	s := NewRotatingCollapse(RotatingCollapseOptions{
		N: 1200, Omega: 0.3, PressureDeficit: 0.85, Seed: 3,
	})
	d0 := s.Diag()
	steps, bounced := s.RunUntilBounce(250)
	if !bounced {
		t.Fatalf("no bounce within %d steps (maxRho %.3g, nuc %.3g)",
			steps, s.Diag().MaxRho, s.Cfg.EOS.RhoNuc)
	}
	d1 := s.Diag()
	// conservation: momentum drift stays small (tree gravity is not
	// exactly pairwise-symmetric, so drift is bounded by the MAC error)
	if d0.Momentum.Norm() > 1e-10 {
		t.Fatalf("initial momentum %v should vanish after COM removal", d0.Momentum)
	}
	if d1.Momentum.Sub(d0.Momentum).Norm() > 2e-2 {
		t.Fatalf("momentum drift %v", d1.Momentum.Sub(d0.Momentum))
	}
	lzDrift := math.Abs(d1.AngMom[2]-d0.AngMom[2]) / math.Abs(d0.AngMom[2])
	if lzDrift > 0.02 {
		t.Fatalf("Lz drift %.3f", lzDrift)
	}
	// energy budget: |E1 - E0| within 10% of |U0| (artificial viscosity
	// heats, neutrinos shuffle energy internally; nothing leaves the box)
	scale := math.Abs(d0.Total()) + d0.Kinetic - d0.Potential
	if math.Abs(d1.Total()-d0.Total()) > 0.12*scale {
		t.Fatalf("energy budget drift: %v -> %v", d0.Total(), d1.Total())
	}
	// the collapse actually compressed the core
	if d1.MaxRho < 5*d0.MaxRho {
		t.Fatalf("core density only %v -> %v", d0.MaxRho, d1.MaxRho)
	}
	// Figure 8: equatorial specific j dominates the polar cone
	prof := s.AngularMomentumByAngle(6)
	pole, equator := prof[0], prof[5]
	if equator < 20*pole {
		t.Fatalf("equator/pole specific-j ratio = %.1f, want >> 1 (Fig 8: ~2 orders)", equator/pole)
	}
	// neutrinos were produced in the hot core
	if d1.Neutrino <= 0 {
		t.Fatal("no neutrino energy produced during collapse")
	}
}

// Without rotation the collapse must stay near spherical: the j profile is
// noise and carries no equatorial concentration.
func TestNonRotatingCollapseIsotropy(t *testing.T) {
	s := NewRotatingCollapse(RotatingCollapseOptions{
		N: 800, Omega: 0, PressureDeficit: 0.85, Seed: 5,
	})
	s.RunUntilBounce(120)
	d := s.Diag()
	if d.AngMom.Norm() > 1e-2 {
		t.Fatalf("non-rotating run grew angular momentum %v", d.AngMom)
	}
}

func TestTimestepPositive(t *testing.T) {
	s := NewRotatingCollapse(RotatingCollapseOptions{N: 300, Omega: 0.2, PressureDeficit: 0.5, Seed: 7})
	dt := s.TimestepCFL()
	if dt <= 0 || math.IsInf(dt, 0) || math.IsNaN(dt) {
		t.Fatalf("dt = %v", dt)
	}
	if got := s.Step(); got <= 0 {
		t.Fatalf("step dt = %v", got)
	}
	if s.Time <= 0 {
		t.Fatal("time must advance")
	}
}

// sortByRho ties (equal densities are the norm in uniform initial states)
// must come out in particle-index order, not sort-internal order, so the
// densest-decile central-velocity diagnostic is deterministic.
func TestSortByRhoStableTies(t *testing.T) {
	xs := make([]rhoi, 40)
	for i := range xs {
		xs[i] = rhoi{rho: float64(3 - i%4), i: i}
	}
	sortByRho(xs)
	for j := 1; j < len(xs); j++ {
		a, b := xs[j-1], xs[j]
		if a.rho < b.rho || (a.rho == b.rho && a.i > b.i) {
			t.Fatalf("position %d: (%v,%d) before (%v,%d)", j, a.rho, a.i, b.rho, b.i)
		}
	}
}

// The Workers setting — tree build, gravity walk, density and FLD gather
// passes, pair evaluation — must not change a single bit of the simulation
// state: run the same collapse at several worker counts and compare the
// particles and the diagnostics exactly.
func TestSimWorkersBitIdentical(t *testing.T) {
	run := func(workers int) (*Particles, Diagnostics) {
		s := NewRotatingCollapse(RotatingCollapseOptions{
			N: 400, Omega: 0.2, PressureDeficit: 0.6, Seed: 9,
		})
		s.Cfg.Workers = workers
		for i := 0; i < 10; i++ {
			s.Step()
		}
		return s.P, s.Diag()
	}
	wantP, wantD := run(1)
	// 16 workers split the pair apply into spans of 25 particles, shorter
	// than the runs of tree positions many leaves' pairs reach.
	for _, w := range []int{2, 4, 7, 16} {
		gotP, gotD := run(w)
		if gotD != wantD {
			t.Fatalf("workers=%d diagnostics diverge:\n%+v\nvs\n%+v", w, gotD, wantD)
		}
		if !reflect.DeepEqual(gotP, wantP) {
			t.Fatalf("workers=%d: particle state (Pos, Vel, U, Enu, Rho, H, ...) differs from workers=1", w)
		}
	}
}

// collapseDigest is the FNV-1a 64 digest of a 500-particle collapse after 12
// steps, pinned before the step searched each leaf once per tree and
// evaluated its pairs in parallel: the trajectory itself, not only its
// independence of Cfg.Workers, must not move. It was re-pinned once since,
// through gravity alone, when the walk began testing leaves like any other
// cell in groups of up to 80 (TestSelfGravityAgainstDirect holds that
// gravity to direct summation).
const collapseDigest = 0xbbd023015e7a3aee

// digestParticles folds every bit of Pos, Vel, U, Enu, H and Rho, in
// particle order, into an FNV-1a 64 stream.
func digestParticles(p *Particles) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	for i := 0; i < p.N(); i++ {
		for _, v := range []vec.V3{p.Pos[i], p.Vel[i]} {
			put(v[0])
			put(v[1])
			put(v[2])
		}
		put(p.U[i])
		put(p.Enu[i])
		put(p.H[i])
		put(p.Rho[i])
	}
	return h.Sum64()
}

// Self-gravity is held to physics, not only to a digest: at the rotating
// collapse's initial conditions (2000 particles on the simulation's own tree,
// its default opening angle and softening) the grouped walk's accelerations
// stay within the error regime of the treecode against direct summation,
// and Diag's θ 0.3 potential energy is the direct sum's to 1e-4.
func TestSelfGravityAgainstDirect(t *testing.T) {
	s := NewRotatingCollapse(RotatingCollapseOptions{Omega: 0.3, PressureDeficit: 0.85, Seed: 1})
	p, cfg := s.P, s.Cfg
	s.ensureTree()
	acc, _, _ := s.tree.AccelAllGrouped(cfg.GravTheta, cfg.GravEps, false, gravity.Float64, cfg.Workers)
	ref, refPot := gravity.Direct(p.Pos, p.Mass, cfg.GravEps)
	rel := make([]float64, p.N())
	for i := range rel {
		rel[i] = acc[i].Sub(ref[i]).Norm() / ref[i].Norm()
	}
	sort.Float64s(rel)
	med, p99 := rel[len(rel)/2], rel[len(rel)*99/100]
	t.Logf("θ %v: median relative error %.3g, p99 %.3g", cfg.GravTheta, med, p99)
	if med > 2e-3 || p99 > 1.5e-2 {
		t.Errorf("θ %v: median relative acceleration error %.3g (bound 2e-3), p99 %.3g (bound 1.5e-2)", cfg.GravTheta, med, p99)
	}

	var want float64
	for i, phi := range refPot {
		want += 0.5 * p.Mass[i] * phi
	}
	got := s.Diag().Potential
	t.Logf("potential energy %.12g, direct %.12g", got, want)
	if d := math.Abs(got-want) / math.Abs(want); d > 1e-4 {
		t.Errorf("Diag potential energy %.12g, direct summation %.12g: relative difference %.3g", got, want, d)
	}
}

// The collapse's trajectory is pinned bit for bit at every worker count. The
// pin encodes amd64 floating-point semantics (other architectures may fuse
// multiply-adds), so elsewhere only the worker counts are compared.
func TestCollapseTrajectoryPinned(t *testing.T) {
	first := uint64(0)
	for _, w := range []int{1, 2, 4, 7} {
		s := NewRotatingCollapse(RotatingCollapseOptions{N: 500, Omega: 0.3, PressureDeficit: 0.85, Seed: 4})
		s.Cfg.Workers = w
		for i := 0; i < 12; i++ {
			s.Step()
		}
		d := digestParticles(s.P)
		if w == 1 {
			first = d
		} else if d != first {
			t.Fatalf("workers=%d digest %#x != workers=1 digest %#x", w, d, first)
		}
		if runtime.GOARCH == "amd64" && d != collapseDigest {
			t.Errorf("workers=%d: digest %#x, want %#x", w, d, uint64(collapseDigest))
		}
	}
}

// benchDigest is digestParticles of bench/'s sph-collapse configuration
// (8000 particles, seed 1) after its 12 steps.
const benchDigest = 0xeba8a6454378793f

// The trajectory the benchmark times is pinned too, at its size, where the
// leaves, the kept runs and the spans of the per-particle loops and of the
// pair apply are many more than at TestCollapseTrajectoryPinned's.
func TestBenchSizeTrajectoryPinned(t *testing.T) {
	first := uint64(0)
	for _, w := range []int{1, 2, 3} {
		s := NewRotatingCollapse(RotatingCollapseOptions{N: 8000, Omega: 0.3, PressureDeficit: 0.85, Seed: 1})
		s.Cfg.Workers = w
		for i := 0; i < 12; i++ {
			s.Step()
		}
		d := digestParticles(s.P)
		if w == 1 {
			first = d
		} else if d != first {
			t.Fatalf("workers=%d digest %#x != workers=1 digest %#x", w, d, first)
		}
		if runtime.GOARCH == "amd64" && d != benchDigest {
			t.Errorf("workers=%d: digest %#x, want %#x", w, d, uint64(benchDigest))
		}
	}
}
