// Package vec provides the small fixed-size vector algebra used throughout
// the N-body, SPH and cosmology codes. Everything is a value type; the
// compiler keeps these in registers, which matters in force inner loops.
package vec

import "math"

// V3 is a 3-component double-precision vector.
type V3 [3]float64

// Add returns a + b.
func (a V3) Add(b V3) V3 { return V3{a[0] + b[0], a[1] + b[1], a[2] + b[2]} }

// Sub returns a - b.
func (a V3) Sub(b V3) V3 { return V3{a[0] - b[0], a[1] - b[1], a[2] - b[2]} }

// Scale returns s * a.
func (a V3) Scale(s float64) V3 { return V3{s * a[0], s * a[1], s * a[2]} }

// AddScaled returns a + s*b, the fused update used by leapfrog integrators.
func (a V3) AddScaled(s float64, b V3) V3 {
	return V3{a[0] + s*b[0], a[1] + s*b[1], a[2] + s*b[2]}
}

// Dot returns the inner product a . b.
func (a V3) Dot(b V3) float64 { return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] }

// Cross returns the cross product a x b.
func (a V3) Cross(b V3) V3 {
	return V3{
		a[1]*b[2] - a[2]*b[1],
		a[2]*b[0] - a[0]*b[2],
		a[0]*b[1] - a[1]*b[0],
	}
}

// Norm2 returns |a|^2.
func (a V3) Norm2() float64 { return a.Dot(a) }

// Norm returns |a|.
func (a V3) Norm() float64 { return math.Sqrt(a.Norm2()) }

// Dist returns |a-b|.
func (a V3) Dist(b V3) float64 { return a.Sub(b).Norm() }

// Unit returns a/|a|, or the zero vector if |a| == 0.
func (a V3) Unit() V3 {
	n := a.Norm()
	if n == 0 {
		return V3{}
	}
	return a.Scale(1 / n)
}

// MaxAbs returns the largest absolute component, the Chebyshev norm.
func (a V3) MaxAbs() float64 {
	m := math.Abs(a[0])
	if v := math.Abs(a[1]); v > m {
		m = v
	}
	if v := math.Abs(a[2]); v > m {
		m = v
	}
	return m
}

// Min returns the componentwise minimum of a and b.
func Min(a, b V3) V3 {
	return V3{math.Min(a[0], b[0]), math.Min(a[1], b[1]), math.Min(a[2], b[2])}
}

// Max returns the componentwise maximum of a and b.
func Max(a, b V3) V3 {
	return V3{math.Max(a[0], b[0]), math.Max(a[1], b[1]), math.Max(a[2], b[2])}
}

// Sym33 is a symmetric 3x3 matrix stored as its six independent components,
// used for quadrupole moments. Order: xx, yy, zz, xy, xz, yz.
type Sym33 [6]float64

// AddOuterScaled accumulates s * (v v^T) into m.
func (m *Sym33) AddOuterScaled(s float64, v V3) {
	m[0] += s * v[0] * v[0]
	m[1] += s * v[1] * v[1]
	m[2] += s * v[2] * v[2]
	m[3] += s * v[0] * v[1]
	m[4] += s * v[0] * v[2]
	m[5] += s * v[1] * v[2]
}

// Add accumulates o into m.
func (m *Sym33) Add(o Sym33) {
	for i := range m {
		m[i] += o[i]
	}
}

// Trace returns xx+yy+zz.
func (m Sym33) Trace() float64 { return m[0] + m[1] + m[2] }
