package sph

// Gray flux-limited diffusion (FLD) for the neutrino field: each particle
// carries a specific neutrino energy enu. The flux is
//
//	F = - (c lambda / (kappa rho)) grad E
//
// with the Levermore-Pomraning limiter lambda(R) interpolating between the
// diffusion limit (lambda = 1/3 deep inside the opaque core) and the
// free-streaming limit (|F| <= c E at the neutrinosphere) — exactly the
// role FLD plays in the Fryer & Warren simulations.

// FluxLimiter returns the Levermore-Pomraning limiter
// lambda(R) = (2 + R) / (6 + 3R + R^2), R = |grad E| / (kappa rho E).
func FluxLimiter(r float64) float64 {
	if r < 0 {
		r = 0
	}
	return (2 + r) / (6 + 3*r + r*r)
}

// FLD holds the transport parameters in code units.
type FLD struct {
	// C is the signal (light) speed in code units.
	C float64
	// Kappa0 scales the opacity: kappa = Kappa0 * rho (neutrino scattering
	// opacity rises with density).
	Kappa0 float64
	// EmissRate scales thermal neutrino emission: du/dt = -EmissRate * u *
	// (rho/RhoEmit)^2 above the emission density, energy moving from
	// matter to the neutrino field.
	EmissRate float64
	RhoEmit   float64
}

// Opacity returns kappa*rho, the inverse mean free path, at density rho.
func (f *FLD) Opacity(rho float64) float64 {
	return f.Kappa0 * rho * rho
}

// DiffusionCoeff returns the limited diffusion coefficient D = c*lambda/
// (kappa*rho) given the local density, neutrino energy density e, and the
// magnitude of its gradient.
func (f *FLD) DiffusionCoeff(rho, e, gradE float64) float64 {
	chi := f.Opacity(rho)
	if chi <= 0 || e <= 0 {
		return 0
	}
	r := gradE / (chi * e)
	return f.C * FluxLimiter(r) / chi
}
