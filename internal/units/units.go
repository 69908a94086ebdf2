// Package units provides the physical constants and the N-body unit system
// that anchor the supernova code's G = 1 units to CGS.
package units

import "math"

// Constants (CGS).
const (
	// G is Newton's gravitational constant in cm^3 g^-1 s^-2.
	G = 6.67430e-8
	// MSun is the solar mass in grams.
	MSun = 1.98892e33
)

// NBodySystem describes a G=1 unit system anchored by a mass and length
// scale. The implied time unit follows from G=1.
type NBodySystem struct {
	MassG    float64 // grams per mass unit
	LengthCM float64 // cm per length unit
}

// TimeSec returns the seconds per N-body time unit: sqrt(L^3/(G*M)).
func (s NBodySystem) TimeSec() float64 {
	l3 := s.LengthCM * s.LengthCM * s.LengthCM
	return math.Sqrt(l3 / (G * s.MassG))
}

// SupernovaUnits anchors the core-collapse problem: 1 mass unit = 1 Msun,
// 1 length unit = 10^8 cm (a convenient core scale).
var SupernovaUnits = NBodySystem{MassG: MSun, LengthCM: 1e8}
