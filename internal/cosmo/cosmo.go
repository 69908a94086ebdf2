// Package cosmo implements the cosmological simulation pipeline of Section
// 4.3: Friedmann expansion and linear growth, the CDM power spectrum (BBKS
// transfer function) normalized to sigma_8, Gaussian-random-field initial
// conditions with Zel'dovich displacements (via the package fft grid
// transform), a friends-of-friends halo finder, and the two-point
// correlation function estimator used to analyze the evolved particle
// distribution (the Figure 7 workflow).
package cosmo

import (
	"fmt"
	"math"
)

// Cosmology holds the background parameters. The paper-era production runs
// used LCDM; the Einstein-de-Sitter special case (OmegaM=1, OmegaL=0) has
// closed-form growth used by the validation tests.
type Cosmology struct {
	OmegaM  float64
	OmegaL  float64
	H0      float64 // in units of 100 km/s/Mpc (i.e. h)
	Sigma8  float64
	NSpec   float64 // primordial spectral index
	GammaSh float64 // shape parameter Omega_m h; 0 derives it
}

// EdS returns the Einstein-de-Sitter cosmology with h = 0.5 (the classic
// standard-CDM setup of the paper's era).
func EdS() Cosmology {
	return Cosmology{OmegaM: 1, OmegaL: 0, H0: 0.5, Sigma8: 0.7, NSpec: 1}
}

// E returns H(a)/H0.
func (c Cosmology) E(a float64) float64 {
	return math.Sqrt(c.OmegaM/(a*a*a) + c.OmegaL + (1-c.OmegaM-c.OmegaL)/(a*a))
}

// GrowthFactor returns the linear growth D(a), normalized to D(1) = 1,
// using the Heath integral D ~ E(a) * integral da'/(a' E(a'))^3.
func (c Cosmology) GrowthFactor(a float64) float64 {
	g := func(a float64) float64 {
		const n = 2000
		sum := 0.0
		da := a / n
		for i := 0; i < n; i++ {
			x := (float64(i) + 0.5) * da
			e := c.E(x)
			sum += da / (x * x * x * e * e * e)
		}
		return c.E(a) * sum
	}
	return g(a) / g(1)
}

// GrowthRate returns f = dlnD/dlna (exactly 1 for EdS), by differencing.
func (c Cosmology) GrowthRate(a float64) float64 {
	da := 1e-4 * a
	d1 := c.GrowthFactor(a - da)
	d2 := c.GrowthFactor(a + da)
	return (math.Log(d2) - math.Log(d1)) / (math.Log(a+da) - math.Log(a-da))
}

// shape returns the BBKS shape parameter Gamma = Omega_m h.
func (c Cosmology) shape() float64 {
	if c.GammaSh > 0 {
		return c.GammaSh
	}
	return c.OmegaM * c.H0
}

// TransferBBKS is the Bardeen, Bond, Kaiser & Szalay (1986) CDM transfer
// function; k in h/Mpc.
func (c Cosmology) TransferBBKS(k float64) float64 {
	if k <= 0 {
		return 1
	}
	q := k / c.shape()
	aq := 1 + 3.89*q + math.Pow(16.1*q, 2) + math.Pow(5.46*q, 3) + math.Pow(6.71*q, 4)
	return math.Log(1+2.34*q) / (2.34 * q) * math.Pow(aq, -0.25)
}

// PowerAt returns the un-normalized P(k) = k^n T(k)^2.
func (c Cosmology) powerUnnorm(k float64) float64 {
	t := c.TransferBBKS(k)
	return math.Pow(k, c.NSpec) * t * t
}

// SigmaR returns the RMS linear fluctuation in spheres of radius r Mpc/h
// for normalization amplitude A: sigma^2 = (A/2pi^2) int k^2 P(k) W^2(kr) dk
// with the top-hat window W(x) = 3(sin x - x cos x)/x^3.
func (c Cosmology) sigmaR(amp, r float64) float64 {
	const n = 4000
	lkMin, lkMax := math.Log(1e-4), math.Log(1e3)
	dlk := (lkMax - lkMin) / n
	sum := 0.0
	for i := 0; i < n; i++ {
		k := math.Exp(lkMin + (float64(i)+0.5)*dlk)
		x := k * r
		w := 3 * (math.Sin(x) - x*math.Cos(x)) / (x * x * x)
		sum += k * k * k * c.powerUnnorm(k) * w * w * dlk
	}
	return math.Sqrt(amp / (2 * math.Pi * math.Pi) * sum)
}

// Normalization returns the amplitude A such that sigma(8 Mpc/h) = Sigma8.
func (c Cosmology) Normalization() float64 {
	s1 := c.sigmaR(1, 8)
	return c.Sigma8 * c.Sigma8 / (s1 * s1)
}

// Power returns the normalized linear power spectrum P(k) at z=0,
// in (Mpc/h)^3, k in h/Mpc.
func (c Cosmology) Power(k float64) float64 {
	return c.Normalization() * c.powerUnnorm(k)
}

func (c Cosmology) String() string {
	return fmt.Sprintf("Om=%.2f OL=%.2f h=%.2f sigma8=%.2f n=%.2f",
		c.OmegaM, c.OmegaL, c.H0, c.Sigma8, c.NSpec)
}
