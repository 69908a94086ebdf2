package cosmo

// LCDM returns a concordance cosmology, the second background the growth
// and normalization tests run.
func LCDM() Cosmology {
	return Cosmology{OmegaM: 0.3, OmegaL: 0.7, H0: 0.7, Sigma8: 0.9, NSpec: 1}
}

// Sigma returns the normalized sigma(r), which the normalization test holds
// to Sigma8 at 8 Mpc/h.
func (c Cosmology) Sigma(r float64) float64 {
	return c.sigmaR(c.Normalization(), r)
}
