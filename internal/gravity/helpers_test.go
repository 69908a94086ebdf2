package gravity

import (
	"math"

	"spacesim/internal/vec"
)

// MonopoleOnly evaluates just the monopole term — used when comparing the
// accuracy gain of carrying quadrupoles.
func (m Multipole) MonopoleOnly(p vec.V3, eps float64) (vec.V3, float64) {
	x := p.Sub(m.COM)
	r2 := x.Norm2() + eps*eps
	rinv := 1 / math.Sqrt(r2)
	rinv3 := rinv * rinv * rinv
	return x.Scale(-m.M * rinv3), -m.M * rinv
}
