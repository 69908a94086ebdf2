package sph

// SoundSpeed returns an effective adiabatic sound speed at (rho, u), as the
// step's pressure pass computes it.
func (e *EOS) SoundSpeed(rho, u float64) float64 {
	return e.soundSpeed(rho, e.Pressure(rho, u))
}
