package main

import (
	"math"
	"math/rand"
	"time"
)

// The sandbox this benchmark is sized for changes speed under it: the same
// seed of the same binary reads 3-4% apart for minutes and then 10-20%
// slower for a run of runs, and the median of ten runs moved 17% within
// half an hour (README.md, "Host speed"). No bound the contract allows
// survives that on raw wall time, so host_s_per_step is reported at a
// reference host speed: wall time divided by how much slower than
// calNominalS a fixed calibration loop ran just before and just after the
// timed section. The loop is this file's own arithmetic and touches no code
// of the repository, so a change to the repository cannot move it.

const (
	// calFloats is the working set of the loop: 32 MB, past the last-level
	// cache, because the treecode's walk and list assembly are bound by
	// memory as much as by arithmetic.
	calFloats = 4 << 20
	// calGathers random reads and calRoots reciprocal square roots make
	// one pass of about twenty milliseconds.
	calGathers = 1 << 19
	calRoots   = 1 << 20
	// calPasses are timed on each side of the timed section.
	calPasses = 8
	// calNominalS is one pass on the reference host at its usual speed. It
	// only fixes the scale; comparisons divide it out.
	calNominalS = 0.019
)

// calibrator owns the loop's buffers, so setting them up is not timed.
type calibrator struct {
	buf  []float64
	idx  []int32
	sink float64
	pass []float64 // seconds of every pass run so far
}

func newCalibrator() *calibrator {
	c := &calibrator{buf: make([]float64, calFloats), idx: make([]int32, calGathers)}
	rng := rand.New(rand.NewSource(1))
	for i := range c.buf {
		c.buf[i] = 1 + rng.Float64()
	}
	for i := range c.idx {
		c.idx[i] = int32(rng.Intn(calFloats))
	}
	return c
}

// run times calPasses more passes.
func (c *calibrator) run() {
	for p := 0; p < calPasses; p++ {
		t0 := time.Now()
		s := 0.0
		for _, j := range c.idx {
			s += c.buf[j]
		}
		for i := 0; i < calRoots; i++ {
			s += 1 / math.Sqrt(c.buf[i]+s*1e-12)
		}
		c.sink += s
		c.pass = append(c.pass, time.Since(t0).Seconds())
	}
}

// slowdown is how many times slower than nominal the host ran the loop:
// the median over all passes so far, before and after the timed section.
func (c *calibrator) slowdown() float64 {
	return median(c.pass) / calNominalS
}
