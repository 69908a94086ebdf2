package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// digestBodies is FNV-1a 64 over every bit of each body's position,
// velocity, mass and ID, in body order.
func digestBodies(bodies []Body) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, b := range bodies {
		for k := 0; k < 3; k++ {
			put(math.Float64bits(b.Pos[k]))
		}
		for k := 0; k < 3; k++ {
			put(math.Float64bits(b.Vel[k]))
		}
		put(math.Float64bits(b.Mass))
		put(uint64(b.ID))
	}
	return h.Sum64()
}

// The seeded initial conditions, bit for bit: every scenario MakeICs builds
// at two seeds and five sizes, and the caller's generator after the two
// samplers (callers keep drawing from the *rand.Rand they passed in). Any
// rewrite of the samplers must keep them, at any GOMAXPROCS (make widths).
// The digests encode amd64 floating-point semantics (elsewhere the compiler
// may fuse multiply-adds); the draw counts hold everywhere.
func TestMakeICsPinned(t *testing.T) {
	amd64 := runtime.GOARCH == "amd64"
	want := map[string]uint64{
		"plummer/1/0":        0xcbf29ce484222325,
		"plummer/1/1":        0xf698ba39b6269d3d,
		"plummer/1/7":        0xc8330b69106f313f,
		"plummer/1/4096":     0x3465d5697544467e,
		"plummer/1/32768":    0xecb5bb1fd63d0981,
		"plummer/2/0":        0xcbf29ce484222325,
		"plummer/2/1":        0xc3a2763b38b994d6,
		"plummer/2/7":        0x5a5b8d0f846583fe,
		"plummer/2/4096":     0x6f1104e74ffe83bb,
		"plummer/2/32768":    0xfad7d68dc573dc08,
		"coldsphere/1/0":     0xcbf29ce484222325,
		"coldsphere/1/1":     0xd270ca1d4521ff3f,
		"coldsphere/1/7":     0xe738653a77249769,
		"coldsphere/1/4096":  0x47f8d23d0210f8f5,
		"coldsphere/1/32768": 0x9d5a0560e2aee5b7,
		"coldsphere/2/0":     0xcbf29ce484222325,
		"coldsphere/2/1":     0xe1081afec458d852,
		"coldsphere/2/7":     0x2ee396a845976930,
		"coldsphere/2/4096":  0xc4ba80741e8129cf,
		"coldsphere/2/32768": 0xc7cba66c592a4bef,
	}
	for _, scenario := range Scenarios() {
		for _, seed := range []int64{1, 2} {
			for _, n := range []int{0, 1, 7, 4096, 32768} {
				name := fmt.Sprintf("%s/%d/%d", scenario, seed, n)
				bodies, err := MakeICs(scenario, seed, n)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(bodies) != n {
					t.Fatalf("%s: %d bodies", name, len(bodies))
				}
				if d := digestBodies(bodies); amd64 && d != want[name] {
					t.Errorf("%s: digest %#x, want %#x", name, d, want[name])
				}
			}
		}
	}

	// The generator's next draw after each sampler: the number of draws a
	// sampler takes, rejections included, is part of its contract.
	rng := rand.New(rand.NewSource(3))
	plummer := PlummerSphere(rng, 1000, 1.5)
	if got, want := math.Float64bits(rng.Float64()), uint64(0x3fecb7585f167fda); got != want {
		t.Errorf("next draw after PlummerSphere(1000, 1.5): %#x, want %#x", got, want)
	}
	if d, want := digestBodies(plummer), uint64(0xbe09f0083b80e9ae); amd64 && d != want {
		t.Errorf("PlummerSphere(1000, 1.5) digest %#x, want %#x", d, want)
	}
	rng = rand.New(rand.NewSource(4))
	cold := ColdSphere(rng, 1000, 2.0)
	if got, want := math.Float64bits(rng.Float64()), uint64(0x3fd43d46f6f79596); got != want {
		t.Errorf("next draw after ColdSphere(1000, 2): %#x, want %#x", got, want)
	}
	if d, want := digestBodies(cold), uint64(0xd2662b66143fc8de); amd64 && d != want {
		t.Errorf("ColdSphere(1000, 2) digest %#x, want %#x", d, want)
	}
}

// The cheap von Neumann test decides every pair as math.Pow does: a million
// uniform (q, u) draws, and for each of the first ten thousand q the draws u
// whose 0.1u sits on, or a few ulps either side of, the exact bound, where
// only the exact form can decide.
func TestPlummerAcceptMatchesPow(t *testing.T) {
	exact := func(q, u float64) bool { return 0.1*u < q*q*math.Pow(1-q*q, 3.5) }
	rng := rand.New(rand.NewSource(5))
	accepted := 0
	for k := 0; k < 1_000_000; k++ {
		q, u := rng.Float64(), rng.Float64()
		want := exact(q, u)
		if got := plummerAccept(q, u); got != want {
			t.Fatalf("q %v u %v: cheap test %v, math.Pow %v", q, u, got, want)
		}
		if want {
			accepted++
		}
		if k >= 10_000 {
			continue
		}
		u = q * q * math.Pow(1-q*q, 3.5) / 0.1
		for _, dir := range []float64{math.Inf(-1), math.Inf(1)} {
			v := u
			for step := 0; step < 4; step++ {
				if got, want := plummerAccept(q, v), exact(q, v); got != want {
					t.Fatalf("q %v u %v (bound %v): cheap test %v, math.Pow %v", q, v, u, got, want)
				}
				v = math.Nextafter(v, dir)
			}
		}
	}
	// The acceptance rate of the rejection loop is ~43%.
	if rate := float64(accepted) / 1e6; rate < 0.42 || rate > 0.44 {
		t.Errorf("acceptance rate %.4f, want ~0.43", rate)
	}
}
