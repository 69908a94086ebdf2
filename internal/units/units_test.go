package units

import (
	"math"
	"testing"
)

func TestConstantsSanity(t *testing.T) {
	// G M_sun / c^2 = half the solar Schwarzschild radius ~ 1.48 km.
	const c = 2.99792458e10 // cm/s
	rg := G * MSun / (c * c)
	if math.Abs(rg-1.476e5)/1.476e5 > 0.01 {
		t.Fatalf("GM/c^2 = %v cm", rg)
	}
}

func TestHubbleAndCriticalDensity(t *testing.T) {
	// rho_crit/h^2 = 3 H100^2 / (8 pi G) ~ 1.878e-29 g/cm^3, with H100 =
	// 100 km/s/Mpc in 1/s.
	const h100 = 100 * 1e5 / 3.0856775814913673e24
	if rho := 3 * h100 * h100 / (8 * math.Pi * G); math.Abs(rho-1.878e-29)/1.878e-29 > 0.01 {
		t.Fatalf("rho_crit = %v", rho)
	}
}

func TestNBodySystemScalings(t *testing.T) {
	// Galactic units: 1e11 Msun, 1 kpc => velocity unit ~ 655 km/s,
	// time unit ~ 1.5 Myr.
	galactic := NBodySystem{MassG: 1e11 * MSun, LengthCM: 3.0856775814913673e21}
	tu := galactic.TimeSec()
	if v := galactic.LengthCM / tu / 1e5; v < 600 || v > 700 {
		t.Fatalf("galactic velocity unit = %v km/s", v)
	}
	if myr := tu / 3.15576e13; myr < 1.2 || myr > 1.8 {
		t.Fatalf("galactic time unit = %v Myr", myr)
	}
	// supernova units: time ~ ms-scale dynamics
	ts := SupernovaUnits.TimeSec()
	if ts < 1e-3 || ts > 1 {
		t.Fatalf("supernova time unit = %v s", ts)
	}
}
