package gravity

import (
	"math"
	"testing"
)

// TestKarpRsqrtEdgeCases pins the non-normal and extreme-exponent contract
// of KarpRsqrt against 1/math.Sqrt, table-driven over the IEEE special
// values and both ends of the double range. The seed's exponent extraction
// read subnormal bits as garbage; this table is the spec for the fixed
// edge path (zeros to signed infinity, +Inf to zero, negatives and NaN to
// NaN, subnormals rescaled and solved at full accuracy).
func TestKarpRsqrtEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		x    float64
	}{
		{"pos-zero", 0},
		{"neg-zero", math.Copysign(0, -1)},
		{"pos-inf", math.Inf(1)},
		{"neg-inf", math.Inf(-1)},
		{"nan", math.NaN()},
		{"neg-one", -1},
		{"neg-subnormal", -math.Float64frombits(1)},
		{"min-subnormal", math.Float64frombits(1)}, // 2^-1074
		{"mid-subnormal", math.Float64frombits(1 << 26)},
		{"max-subnormal", math.Float64frombits(1<<52 - 1)},
		{"min-normal", math.Float64frombits(1 << 52)}, // 2^-1022
		{"min-normal-odd-exp", 0x1p-1021},
		{"max-normal", math.MaxFloat64},
		{"near-max", math.MaxFloat64 / 3},
		{"one", 1},
		{"four", 4},
		{"odd-exp-small", 0x1p-301},
		{"even-exp-small", 0x1p-300},
		{"odd-exp-big", 0x1p301},
		{"even-exp-big", 0x1p300},
		{"just-below-one", math.Nextafter(1, 0)},
		{"just-above-four", math.Nextafter(4, 8)},
	}
	for _, c := range cases {
		got := KarpRsqrt(c.x)
		want := 1 / math.Sqrt(c.x)
		switch {
		case math.IsNaN(want):
			if !math.IsNaN(got) {
				t.Errorf("%s: KarpRsqrt(%g) = %v, want NaN", c.name, c.x, got)
			}
		case math.IsInf(want, 0) || want == 0:
			if got != want || math.Signbit(got) != math.Signbit(want) {
				t.Errorf("%s: KarpRsqrt(%g) = %v, want %v", c.name, c.x, got, want)
			}
		default:
			if e := math.Abs(got-want) / want; e > 1e-11 {
				t.Errorf("%s: KarpRsqrt(%g) rel err %g, want <= 1e-11", c.name, c.x, e)
			}
		}
	}
}

// TestKarpRsqrtExponentSweep walks every binade of the positive double
// range — the deepest subnormal through 2^1023 — with several mantissas
// each, pinning the documented 1e-11 relative-error bound across the whole
// exponent range (both parities of the exponent, both table ends).
func TestKarpRsqrtExponentSweep(t *testing.T) {
	mantissas := []float64{1, 1.0000000001, 1.25, 1.5, 1.75, 1.9999999999}
	maxErr, argAt := 0.0, 0.0
	for exp := -1074; exp <= 1023; exp++ {
		for _, m := range mantissas {
			x := m * math.Ldexp(1, exp)
			if x == 0 || math.IsInf(x, 0) {
				continue // the extreme binades clip; the surviving points still cover them
			}
			got := KarpRsqrt(x)
			want := 1 / math.Sqrt(x)
			if e := math.Abs(got-want) / want; e > maxErr {
				maxErr, argAt = e, x
			}
		}
	}
	if maxErr > 1e-11 {
		t.Fatalf("max relative error %g at x = %g, want <= 1e-11", maxErr, argAt)
	}
	if maxErr == 0 {
		t.Fatal("sweep measured zero error; harness is broken")
	}
}
