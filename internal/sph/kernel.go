// Package sph implements the smoothed-particle-hydrodynamics core-collapse
// supernova code of Section 4.4: "by implementing the smooth particle
// hydrodynamics formalism onto the tree structure described above for
// N-body studies, we have been able to include both the essential physics
// and a flux-limited diffusion algorithm to model the neutrino transport."
//
// The pieces: a cubic-spline kernel, neighbor search on the gravity tree (a
// ball search per leaf bucket, see search.go), density summation with
// adaptive smoothing lengths, a hybrid nuclear equation of
// state (soft below nuclear density, stiff above — the bounce mechanism),
// Monaghan artificial viscosity, tree gravity (package htree), gray
// flux-limited neutrino diffusion with a Levermore-Pomraning limiter, and
// the rotating-collapse initial model of Figure 8.
package sph

import "math"

// Cubic spline kernel (Monaghan & Lattanzio 1985) in 3-D:
// W(q) = sigma * (1 - 1.5 q^2 + 0.75 q^3)      0 <= q < 1
//        sigma * 0.25 (2-q)^3                  1 <= q < 2
// with q = r/h and sigma = 1/(pi h^3); support radius 2h.

// kernelSigma is the 3-D normalization 1/pi.
const kernelSigma = 1.0 / math.Pi

// W returns the kernel value at distance r for smoothing length h.
func W(r, h float64) float64 {
	q := r / h
	s := kernelSigma / (h * h * h)
	switch {
	case q < 1:
		return s * (1 - 1.5*q*q + 0.75*q*q*q)
	case q < 2:
		d := 2 - q
		return s * 0.25 * d * d * d
	default:
		return 0
	}
}

// DW returns dW/dr at distance r (scalar; the vector gradient is
// DW * rhat). It is <= 0 everywhere within the support.
func DW(r, h float64) float64 {
	q := r / h
	s := kernelSigma / (h * h * h * h)
	switch {
	case q < 1:
		return s * (-3*q + 2.25*q*q)
	case q < 2:
		d := 2 - q
		return s * -0.75 * d * d
	default:
		return 0
	}
}

// SupportRadius returns the kernel's compact support, 2h.
func SupportRadius(h float64) float64 { return 2 * h }
