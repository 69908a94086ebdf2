// Package core is the parallel Hashed Oct-Tree N-body code (Section 4.2 of
// the paper): Morton-key domain decomposition implemented as a weighted
// parallel sort, a distributed tree with a global key name space, a
// latency-hiding traversal built on asynchronous batched messages, and a
// leapfrog integrator with conservation diagnostics.
//
// The code is SPMD over the virtual-time message-passing layer (package
// mp): running it on a modeled 288-node Space Simulator yields the paper's
// application-level performance shapes; running it on a few ranks with
// theta -> 0 validates the numerics against direct summation.
package core

import (
	"fmt"
	"math"
	"math/rand"

	"spacesim/internal/htree"
	"spacesim/internal/key"
	"spacesim/internal/par"
	"spacesim/internal/vec"
)

// Body is one simulation particle.
type Body struct {
	Pos  vec.V3
	Vel  vec.V3
	Mass float64
	// Key is the Morton key in the current global box.
	Key key.K
	// Work is the interaction count of the previous force evaluation,
	// used to weight the domain decomposition.
	Work float64
	// ID is a stable global identifier.
	ID int64
}

// Options configures a simulation.
type Options struct {
	// Theta is the multipole acceptance parameter. There is no default: a
	// run refuses zero (RunConfig.Validate).
	Theta float64
	// Eps is the Plummer softening length. There is no default: zero means
	// unsoftened gravity, which also sends every bucket through the slower
	// checked kernel loop (the assembly kernels need Eps*Eps >= 2^-1000).
	Eps float64
	// DT is the leapfrog timestep.
	DT float64
	// MaxLeaf is the tree bucket size (default 8).
	MaxLeaf int
	// Workers is the width of the host loop that gathers and evaluates each
	// run of a rank's resident sink groups, one wider for the rank itself
	// (< 1 means GOMAXPROCS: par.Width). Results are bit-identical for any
	// value.
	Workers int
	// BuildArena, when non-nil, supplies reusable tree-build storage so a
	// rank's per-step rebuilds stop allocating. An arena is exclusive
	// per-rank state: Run ignores this field and gives every rank
	// goroutine its own arena; set it only when calling BuildDistributed
	// directly from a single goroutine.
	BuildArena *htree.Arena
}

func (o Options) withDefaults() Options {
	if o.MaxLeaf == 0 {
		o.MaxLeaf = 8
	}
	return o
}

// icClaim is the number of bodies one goroutine of a sampler's map pass
// claims at a time.
const icClaim = 2048

// PlummerSphere samples n bodies from a Plummer model with total mass 1 and
// scale radius a, at virial equilibrium — the classic stable test cluster.
//
// It runs in two passes. The first, on the caller's goroutine, takes every
// draw from rng in the order one body after another would, rejections
// included, and parks each body's draws in the Pos and Vel fields; the
// second maps the draws to positions and velocities on every host CPU
// (par.For), one body at a time with the same expressions, so the bodies and
// the draws left in rng do not depend on the width.
func PlummerSphere(rng *rand.Rand, n int, a float64) []Body {
	bodies := make([]Body, n)
	for i := range bodies {
		b := &bodies[i]
		// radius from the cumulative mass profile, then its direction
		b.Pos = vec.V3{rng.Float64(), rng.Float64(), rng.Float64()}
		// speed as a fraction q of the local escape speed, by von Neumann
		// rejection (Aarseth, Henon & Wielen 1974), then its direction
		q := rng.Float64()
		for !plummerAccept(q, rng.Float64()) {
			q = rng.Float64()
		}
		b.Vel = vec.V3{q, rng.Float64(), rng.Float64()}
	}
	mass := 1.0 / float64(n)
	mapClaims(n, func(i int) {
		b := &bodies[i]
		x, q := b.Pos[0], b.Vel[0]
		r := a / math.Sqrt(math.Pow(x, -2.0/3.0)-1)
		ve := math.Sqrt2 * math.Pow(1+r*r/(a*a), -0.25)
		*b = Body{
			Pos:  direction(b.Pos[1], b.Pos[2]).Scale(r),
			Vel:  direction(b.Vel[1], b.Vel[2]).Scale(q * ve),
			Mass: mass,
			ID:   int64(i),
		}
	})
	// Remove the sampling-noise net momentum so conservation diagnostics
	// start from P = 0.
	var p vec.V3
	var m float64
	for i := range bodies {
		p = p.AddScaled(bodies[i].Mass, bodies[i].Vel)
		m += bodies[i].Mass
	}
	vcom := p.Scale(1 / m)
	for i := range bodies {
		bodies[i].Vel = bodies[i].Vel.Sub(vcom)
	}
	return bodies
}

// plummerAccept is the von Neumann test of a speed fraction q against the
// uniform draw u: 0.1u < q²(1−q²)^3.5. It decides from q²w³√w (w = 1−q²),
// which differs from math.Pow(w, 3.5) by a few ulps, and calls math.Pow
// only when 0.1u lies within a relative 1e-12 of it, so every decision is
// the one math.Pow gives.
func plummerAccept(q, u float64) bool {
	w := 1 - q*q
	v := 0.1 * u
	g := q * q * w * w * w * math.Sqrt(w)
	if math.Abs(v-g) <= 1e-12*g {
		return v < q*q*math.Pow(w, 3.5)
	}
	return v < g
}

// ColdSphere returns n bodies uniformly filling a sphere of the given
// radius at rest — the paper's "standard simulation problem ... a spherical
// distribution of particles which represents the initial evolution of a
// cosmological N-body simulation" (Table 6). Like PlummerSphere it draws on
// the caller's goroutine and maps on every host CPU.
func ColdSphere(rng *rand.Rand, n int, radius float64) []Body {
	bodies := make([]Body, n)
	for i := range bodies {
		bodies[i].Pos = vec.V3{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	mass := 1.0 / float64(n)
	mapClaims(n, func(i int) {
		d := bodies[i].Pos
		bodies[i] = Body{
			Pos:  direction(d[1], d[2]).Scale(radius * math.Cbrt(d[0])),
			Mass: mass,
			ID:   int64(i),
		}
	})
	return bodies
}

// mapClaims calls fn for every body index below n, icClaim indices to a
// claim, on par.For at the host's width.
func mapClaims(n int, fn func(i int)) {
	par.For((n+icClaim-1)/icClaim, 0, func(_, c int) {
		for i := c * icClaim; i < min((c+1)*icClaim, n); i++ {
			fn(i)
		}
	})
}

// Scenarios names the initial-condition generators MakeICs accepts.
func Scenarios() []string { return []string{"plummer", "coldsphere"} }

// MakeICs builds the seeded initial conditions for a named scenario — the
// single construction path shared by the CLIs and the job server, so a
// (scenario, seed, n) triple always produces the same bodies bit for bit.
func MakeICs(scenario string, seed int64, n int) ([]Body, error) {
	if n < 0 {
		return nil, fmt.Errorf("core: n %d is negative", n)
	}
	rng := rand.New(rand.NewSource(seed))
	switch scenario {
	case "plummer":
		return PlummerSphere(rng, n, 1.0), nil
	case "coldsphere":
		return ColdSphere(rng, n, 1.0), nil
	}
	return nil, fmt.Errorf("core: unknown scenario %q (have %v)", scenario, Scenarios())
}

// direction is the unit vector of two uniform draws: the cosine of the polar
// angle from the first, the azimuth from the second.
func direction(d1, d2 float64) vec.V3 {
	u := 2*d1 - 1
	ph := 2 * math.Pi * d2
	s := math.Sqrt(1 - u*u)
	return vec.V3{s * math.Cos(ph), s * math.Sin(ph), u}
}

// Energies are the conservation diagnostics of a step.
type Energies struct {
	Kinetic   float64
	Potential float64
	Momentum  vec.V3
	AngMom    vec.V3
}

// Total returns E = T + U.
func (e Energies) Total() float64 { return e.Kinetic + e.Potential }
