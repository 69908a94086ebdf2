package htree

import (
	"math"
	"math/rand"
	"testing"

	"spacesim/internal/vec"
)

// macWant is the bucket test as defined: the expression GatherList and the
// distributed walk evaluated for every cell before the prefilter.
func macWant(center vec.V3, radius, theta float64, com vec.V3, bmax float64) bool {
	return AcceptMAC(com.Dist(center)-radius, bmax, theta)
}

// macGot decides the way the walk loops do: the prefilter, then Exact for
// what it leaves open.
func macGot(m *BucketMAC, com vec.V3, bmax float64) (accept, decided bool) {
	accept, decided = m.Prefilter(m.Dist2(&com), bmax)
	if !decided {
		accept = m.Exact(&com, bmax)
	}
	return accept, decided
}

var macThetas = []float64{0.3, 0.7, 1.0}

// On random cells around the threshold — where the answer is not a foregone
// conclusion — the prefilter never disagrees with the definition, and it
// settles all but a vanishing share: the band is neither too narrow to be
// safe nor so wide that the square root comes back.
func TestBucketMACMatchesDefinitionRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const cases = 1 << 20
	undecided := 0
	for i := 0; i < cases; i++ {
		theta := macThetas[i%len(macThetas)]
		center := vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		radius := rng.Float64()
		bmax := rng.Float64()
		// A center of mass at 0.5 to 1.5 thresholds from the bucket's center,
		// in a random direction.
		dir := vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Unit()
		r := (radius + bmax/theta) * (0.5 + rng.Float64())
		com := center.AddScaled(r, dir)

		m := NewBucketMAC(center, radius, theta)
		got, decided := macGot(&m, com, bmax)
		if want := macWant(center, radius, theta, com, bmax); got != want {
			t.Fatalf("case %d: center %v radius %v theta %v com %v bmax %v: got %v (decided %v), want %v",
				i, center, radius, theta, com, bmax, got, decided, want)
		}
		if !decided {
			undecided++
		}
	}
	if frac := float64(undecided) / cases; frac >= 1e-6 {
		t.Errorf("prefilter left %d of %d random cases to the exact test (%.2g), want < 1e-6", undecided, cases, frac)
	}
}

// Scales from deep underflow to overflow of the squares, with the distance
// again drawn around the threshold: whatever the prefilter decides there
// must be what the definition says.
func TestBucketMACMatchesDefinitionAllScales(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for i := 0; i < 1<<18; i++ {
		theta := macThetas[i%len(macThetas)]
		scale := math.Pow(10, -320+640*rng.Float64())
		center := vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Scale(scale)
		radius := rng.Float64() * scale
		bmax := rng.Float64() * scale
		dir := vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Unit()
		com := center.AddScaled((radius+bmax/theta)*(0.5+rng.Float64()), dir)
		m := NewBucketMAC(center, radius, theta)
		got, decided := macGot(&m, com, bmax)
		if want := macWant(center, radius, theta, com, bmax); got != want {
			t.Fatalf("scale %g: center %v radius %v theta %v com %v bmax %v: got %v (decided %v), want %v",
				scale, center, radius, theta, com, bmax, got, decided, want)
		}
	}
}

// FuzzBucketMAC holds a sink group's test to its definition on any sphere,
// cell and theta in [0, 4] at scales from 1e-160 to 1e150, the distance
// drawn around the threshold: the prefilter plus Exact is AcceptMAC, theta 0
// accepts nothing, any positive theta accepts a cell of Bmax 0 outside the
// sphere (its monopole is exact), and the test owns exactly the cells whose
// body range overlaps the group's, which the walks never accept. Seeded from
// the adversarial table's spheres, scales and origins.
func FuzzBucketMAC(f *testing.F) {
	type sphere struct{ radius, bmax float64 }
	i := 0
	for _, theta := range []float64{0, 0.3, 0.7, 1, 2, 4} {
		for _, e := range []int16{0, -3, 6, -160, 150} {
			for _, s := range []sphere{{0.25, 0.5}, {0, 0.5}, {0.25, 0}, {0, 0}, {1, 1e-9}, {1e-9, 1}} {
				for _, o := range []vec.V3{{}, {1, -2, 0.5}} {
					i++
					f.Add(o[0], o[1], o[2], s.radius, s.bmax, theta, 0.5*float64(i%5), 0.3, -0.4, 1.2, e, int8(i%9-4),
						uint8(i%7), uint8(i%3*8), uint8(i%11), uint8(i%4))
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, cx, cy, cz, radius, bmax, theta, r, ux, uy, uz float64, e int16, k int8, glo, gn, clo, cn uint8) {
		for _, x := range []float64{cx, cy, cz, radius, bmax, theta, r, ux, uy, uz} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return // TestBucketMACAdversarial covers non-finite inputs
			}
		}
		scale := math.Pow(10, float64(min(max(e, -160), 150)))
		if !(theta >= 0 && theta <= 4) {
			theta = math.Mod(math.Abs(theta), 4)
		}
		radius = math.Mod(math.Abs(radius), 2) * scale
		bmax = math.Mod(math.Abs(bmax), 2) * scale
		center := vec.V3{math.Mod(cx, 4), math.Mod(cy, 4), math.Mod(cz, 4)}.Scale(scale)
		dir := vec.V3{ux, uy, uz}
		if n := dir.Norm(); !(n > 1e-100 && n < 1e100) {
			dir = vec.V3{1, 0, 0}
		}
		thr := radius + bmax
		if theta > 0 {
			thr = radius + bmax/theta
		}
		com := center.AddScaled(ulps(math.Mod(math.Abs(r), 3)*thr, int(k%5)), dir.Unit())

		// Neither a group nor a cell is ever empty.
		g := &Cell{Lo: int(glo), Hi: int(glo) + int(gn) + 1, Bmax: radius}
		g.Mp.COM = center
		m := NewGroupMAC(g, theta)
		got, decided := macGot(&m, com, bmax)
		d := com.Dist(center) - radius
		if want := AcceptMAC(d, bmax, theta); got != want {
			t.Fatalf("center %v radius %v theta %v com %v bmax %v: got %v (decided %v), AcceptMAC %v",
				center, radius, theta, com, bmax, got, decided, want)
		}
		if theta == 0 && got {
			t.Fatalf("theta 0 accepted a cell: center %v radius %v com %v bmax %v", center, radius, com, bmax)
		}
		if theta > 0 && bmax == 0 && d > 0 && !got {
			t.Fatalf("theta %v rejected a cell of Bmax 0 at distance %v outside the sphere", theta, d)
		}
		lo, hi := int(clo), int(clo)+int(cn)+1
		overlap := false
		for b := lo; b < hi; b++ {
			overlap = overlap || (b >= g.Lo && b < g.Hi)
		}
		if owns := m.Owns(lo, hi); owns != overlap {
			t.Fatalf("group [%d,%d), cell [%d,%d): Owns %v, bodies shared %v", g.Lo, g.Hi, lo, hi, owns, overlap)
		}
		if plain := NewBucketMAC(center, radius, theta); plain.Owns(lo, hi) {
			t.Fatalf("a test built without a group owns cell [%d,%d)", lo, hi)
		}
	})
}

// ulps steps x by n representable values, up for positive n.
func ulps(x float64, n int) float64 {
	to := math.Inf(1)
	if n < 0 {
		to, n = math.Inf(-1), -n
	}
	for ; n > 0; n-- {
		x = math.Nextafter(x, to)
	}
	return x
}

// The adversarial table: the distance within a few ulps of the threshold,
// degenerate spheres and cells, the sink inside the cell, coincident points,
// and scales at which the squares underflow or overflow — there the
// prefilter must step aside, not guess.
func TestBucketMACAdversarial(t *testing.T) {
	type sphere struct{ radius, bmax float64 }
	check := func(label string, center vec.V3, radius, theta float64, com vec.V3, bmax float64, wantUndecided bool) {
		t.Helper()
		m := NewBucketMAC(center, radius, theta)
		got, decided := macGot(&m, com, bmax)
		if want := macWant(center, radius, theta, com, bmax); got != want {
			t.Errorf("%s: center %v radius %v theta %v com %v bmax %v: got %v (decided %v), want %v",
				label, center, radius, theta, com, bmax, got, decided, want)
		}
		if wantUndecided && decided {
			t.Errorf("%s: center %v radius %v theta %v com %v bmax %v: prefilter decided, want it left to the exact test",
				label, center, radius, theta, com, bmax)
		}
	}
	dirs := []vec.V3{{1, 0, 0}, {0, -1, 0}, {1, 1, 1}, {0.3, -0.4, 1.2}}
	for _, theta := range macThetas {
		for _, scale := range []float64{1, 1e-3, 1e6, 1e-160, 1e150} {
			extreme := scale == 1e-160 || scale == 1e150
			for _, s := range []sphere{{0.25, 0.5}, {0, 0.5}, {0.25, 0}, {0, 0}, {1, 1e-9}, {1e-9, 1}} {
				radius, bmax := s.radius*scale, s.bmax*scale
				thr := radius + bmax/theta
				for _, origin := range []vec.V3{{}, {scale, -2 * scale, 0.5 * scale}} {
					// r a few ulps either side of the threshold, along several
					// directions (off-axis, the rounding of the squares differs).
					for k := -4; k <= 4; k++ {
						for _, d := range dirs {
							com := origin.AddScaled(ulps(thr, k)/d.Norm(), d)
							check("ulps", origin, radius, theta, com, bmax, extreme)
						}
					}
					// Sink inside the cell (d <= 0), on its surface, and
					// coincident centers.
					for _, f := range []float64{0, 0.5, 1} {
						com := origin.AddScaled(f*radius, dirs[0])
						check("inside", origin, radius, theta, com, bmax, extreme && f > 0)
					}
					// Far apart and far inside: the prefilter's bread and butter.
					check("far", origin, radius, theta, origin.AddScaled(100*thr+scale, dirs[2].Unit()), bmax, extreme)
					check("near", origin, radius, theta, origin.AddScaled(0.01*thr, dirs[3].Unit()), bmax, extreme && thr > 0)
				}
			}
		}
	}

	// Not-a-number, infinite, zero and negative inputs in every position,
	// with the distance on either side of both radius and threshold: where
	// radius, cell size or theta is not a positive number the squared form
	// and the definition part ways, and the definition must win.
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, -0.25, 0.25, 1}
	dists := []float64{math.NaN(), math.Inf(1), 0, 0.1, 0.5, 0.8, 1, 1.2, 1.5, 3}
	for _, cx := range []float64{0, 1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, radius := range odd {
			for _, theta := range append([]float64{-0.7}, append(odd, macThetas...)...) {
				for _, r := range dists {
					for _, bmax := range odd {
						center := vec.V3{cx, 0.5, -1}
						check("odd", center, radius, theta, center.AddScaled(r, dirs[0]), bmax, false)
					}
				}
			}
		}
	}

	// A negative radius that all but cancels bmax/theta: the threshold is then
	// the small difference of two large numbers, and the multiply by 1/theta
	// that stands in for the divide is no longer within the band of it.
	for _, theta := range macThetas {
		for _, eps := range []float64{1e-12, 1e-9, 1e-6} {
			for bmax := 0.5; bmax < 8; bmax *= 1.37 {
				radius := -(bmax / theta) * (1 - eps)
				thr := radius + bmax/theta
				for _, f := range []float64{1 - 1e-4, 1 - 1e-5, 1 - 1e-7, 1, 1 + 1e-7, 1 + 1e-5, 1 + 1e-4} {
					for k := -2; k <= 2; k++ {
						check("cancel", vec.V3{}, radius, theta, vec.V3{0, 0, ulps(thr*f, k)}, bmax, true)
					}
				}
			}
		}
	}
}
