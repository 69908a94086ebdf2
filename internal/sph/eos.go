package sph

import "math"

// EOS is the hybrid nuclear equation of state used by core-collapse
// calculations: a soft polytrope (Gamma1 ~ 4/3, electron-degeneracy
// pressure) below nuclear density, a stiff branch (Gamma2 ~ 2.5, repulsive
// nuclear forces) above it — the stiffening is what halts the collapse and
// drives the bounce — plus a thermal component from shock heating.
type EOS struct {
	// K1 is the polytropic constant of the soft branch; RhoNuc the
	// stiffening density; Gamma1/Gamma2 the two exponents; GammaTh the
	// thermal-component index.
	K1      float64
	RhoNuc  float64
	Gamma1  float64
	Gamma2  float64
	GammaTh float64

	k2 float64 // continuity constant for the stiff branch
}

// NewEOS builds the hybrid EOS with pressure continuity at RhoNuc.
func NewEOS(k1, rhoNuc, gamma1, gamma2, gammaTh float64) *EOS {
	e := &EOS{K1: k1, RhoNuc: rhoNuc, Gamma1: gamma1, Gamma2: gamma2, GammaTh: gammaTh}
	// K2 rhoNuc^G2 = K1 rhoNuc^G1
	e.k2 = k1 * math.Pow(rhoNuc, gamma1-gamma2)
	return e
}

// Cold returns the cold (zero-temperature) pressure at density rho.
func (e *EOS) Cold(rho float64) float64 {
	if rho <= e.RhoNuc {
		return e.K1 * math.Pow(rho, e.Gamma1)
	}
	return e.k2 * math.Pow(rho, e.Gamma2)
}

// Pressure returns total pressure for density rho and specific thermal
// energy u (the thermal part is (GammaTh-1) rho u, floored at zero).
func (e *EOS) Pressure(rho, u float64) float64 {
	p := e.Cold(rho)
	if u > 0 {
		p += (e.GammaTh - 1) * rho * u
	}
	return p
}

// SoundSpeed returns an effective adiabatic sound speed at (rho, u).
func (e *EOS) SoundSpeed(rho, u float64) float64 {
	return e.soundSpeed(rho, e.Pressure(rho, u))
}

// soundSpeed returns the sound speed at density rho and pressure p: the
// one at (rho, u) when p is Pressure(rho, u), without evaluating it again.
func (e *EOS) soundSpeed(rho, p float64) float64 {
	gamma := e.Gamma1
	if rho > e.RhoNuc {
		gamma = e.Gamma2
	}
	cs2 := gamma * p / rho
	if cs2 < 0 {
		cs2 = 0
	}
	return math.Sqrt(cs2)
}

// ColdEnergy returns the specific internal energy of the cold branch,
// integral of P/rho^2 drho (used to initialize polytropes consistently).
func (e *EOS) ColdEnergy(rho float64) float64 {
	if rho <= e.RhoNuc {
		return e.K1 * math.Pow(rho, e.Gamma1-1) / (e.Gamma1 - 1)
	}
	eNuc := e.K1 * math.Pow(e.RhoNuc, e.Gamma1-1) / (e.Gamma1 - 1)
	return eNuc + e.k2*(math.Pow(rho, e.Gamma2-1)-math.Pow(e.RhoNuc, e.Gamma2-1))/(e.Gamma2-1)
}
