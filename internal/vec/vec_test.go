package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestAddSub(t *testing.T) {
	a := V3{1, 2, 3}
	b := V3{-4, 5, 0.5}
	if got := a.Add(b); got != (V3{-3, 7, 3.5}) {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Sub(b); got != (V3{5, -3, 2.5}) {
		t.Fatalf("Sub = %v", got)
	}
}

func TestScaleAddScaled(t *testing.T) {
	a := V3{1, -2, 4}
	if got := a.Scale(0.5); got != (V3{0.5, -1, 2}) {
		t.Fatalf("Scale = %v", got)
	}
	b := V3{2, 2, 2}
	if got := a.AddScaled(3, b); got != (V3{7, 4, 10}) {
		t.Fatalf("AddScaled = %v", got)
	}
}

func TestDotCross(t *testing.T) {
	x := V3{1, 0, 0}
	y := V3{0, 1, 0}
	z := V3{0, 0, 1}
	if x.Cross(y) != z || y.Cross(z) != x || z.Cross(x) != y {
		t.Fatal("right-handed basis cross products wrong")
	}
	if x.Dot(y) != 0 || x.Dot(x) != 1 {
		t.Fatal("dot products wrong")
	}
}

func TestNormDistUnit(t *testing.T) {
	a := V3{3, 4, 0}
	if a.Norm() != 5 {
		t.Fatalf("Norm = %v", a.Norm())
	}
	if a.Dist(V3{0, 4, 0}) != 3 {
		t.Fatal("Dist wrong")
	}
	u := a.Unit()
	if !almostEq(u.Norm(), 1, 1e-15) {
		t.Fatalf("Unit norm = %v", u.Norm())
	}
	if (V3{}).Unit() != (V3{}) {
		t.Fatal("Unit of zero should be zero")
	}
}

func TestMaxAbsMinMax(t *testing.T) {
	a := V3{-7, 2, 3}
	if a.MaxAbs() != 7 {
		t.Fatalf("MaxAbs = %v", a.MaxAbs())
	}
	b := V3{1, 5, -9}
	if Min(a, b) != (V3{-7, 2, -9}) || Max(a, b) != (V3{1, 5, 3}) {
		t.Fatal("Min/Max wrong")
	}
}

func TestSym33OuterAndQuad(t *testing.T) {
	var m Sym33
	v := V3{1, 2, 3}
	m.AddOuterScaled(2, v)
	// m = 2 v v^T, so m*w = 2 v (v.w)
	w := V3{-1, 0.5, 2}
	want := v.Scale(2 * v.Dot(w))
	got := m.MulVec(w)
	for i := 0; i < 3; i++ {
		if !almostEq(got[i], want[i], 1e-14) {
			t.Fatalf("MulVec[%d] = %v want %v", i, got[i], want[i])
		}
	}
	if q := w.Dot(m.MulVec(w)); !almostEq(q, 2*v.Dot(w)*v.Dot(w), 1e-14) {
		t.Fatalf("w^T m w = %v", q)
	}
	if !almostEq(m.Trace(), 2*v.Norm2(), 1e-14) {
		t.Fatalf("Trace = %v", m.Trace())
	}
}

func TestSym33Add(t *testing.T) {
	var a, b Sym33
	a.AddOuterScaled(1, V3{1, 0, 0})
	b.AddOuterScaled(1, V3{0, 1, 0})
	a.Add(b)
	if a.Trace() != 2 {
		t.Fatalf("Trace after Add = %v", a.Trace())
	}
}

// Property: cross product is perpendicular to both inputs and its norm
// satisfies Lagrange's identity.
func TestCrossProperties(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := V3{clamp(ax), clamp(ay), clamp(az)}
		b := V3{clamp(bx), clamp(by), clamp(bz)}
		c := a.Cross(b)
		tol := 1e-9
		if !almostEq(c.Dot(a), 0, tol) || !almostEq(c.Dot(b), 0, tol) {
			return false
		}
		lhs := c.Norm2()
		rhs := a.Norm2()*b.Norm2() - a.Dot(b)*a.Dot(b)
		return almostEq(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: (a+b)-b == a up to rounding, and Dot is bilinear.
func TestVectorAlgebraProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		b := V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		s := rng.NormFloat64()
		d := a.Add(b).Sub(b)
		for i := 0; i < 3; i++ {
			if !almostEq(d[i], a[i], 1e-12) {
				return false
			}
		}
		return almostEq(a.Scale(s).Dot(b), s*a.Dot(b), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func clamp(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	// keep magnitudes sane so the identity check tolerances hold
	return math.Mod(x, 1e6)
}
