package sph

import (
	"fmt"
	"math"
	"os"
	"testing"
)

// TestFig8RatioTable prints the Fig. 8 exhibit's equator-over-pole ratio —
// the mean |j_z| of the 75–90° bin over the 0–15° bin, AngularMomentumByAngle(6)
// — for the exhibit's model (Ω 0.3, pressure deficit 0.85) at t = 0 and at
// bounce, for N ∈ {1500, 6000, 24 000} and seeds 3 (the exhibit's) and 4,
// with the steps to bounce under the exhibit's 300-step cap. Under solid-body
// rotation j_z = Ω·r²·sin²θ, and every bin of a uniform sphere has the same
// radial profile, so at t = 0 the ratio is ⟨sin²θ⟩ over 75–90° over
// ⟨sin²θ⟩ over 0–15° (each weighted by sinθ), printed first. It asserts
// nothing: it is the measurement the `fig8/j-equator-over-pole` row's
// deviation reason and its DESIGN.md §16 entry are written from.
//
//	SPACESIM_TABLES=1 go test ./internal/sph -run TestFig8RatioTable -v
func TestFig8RatioTable(t *testing.T) {
	if os.Getenv("SPACESIM_TABLES") == "" {
		t.Skip("prints a table; set SPACESIM_TABLES=1 to run it")
	}
	const maxSteps = 300 // the exhibit's cap (cmd/ssbench, fig8)
	// ∫sin³θ dθ / ∫sinθ dθ over [a, b], in c = cosθ.
	sin2 := func(a, b float64) float64 {
		ca, cb := math.Cos(a), math.Cos(b)
		return (ca - ca*ca*ca/3 - cb + cb*cb*cb/3) / (ca - cb)
	}
	fmt.Printf("solid-body ratio at t = 0: %.2f\n\n", sin2(5*math.Pi/12, math.Pi/2)/sin2(0, math.Pi/12))
	fmt.Println("| particles | seed | ratio at t = 0 | steps to bounce | ratio at bounce |")
	fmt.Println("|---|---|---|---|---|")
	for _, n := range []int{1500, 6000, 24000} {
		for _, seed := range []int64{3, 4} {
			s := NewRotatingCollapse(RotatingCollapseOptions{N: n, Omega: 0.3, PressureDeficit: 0.85, Seed: seed})
			j0 := s.AngularMomentumByAngle(6)
			steps, bounced := s.RunUntilBounce(maxSteps)
			at := "no bounce"
			if bounced {
				j := s.AngularMomentumByAngle(6)
				at = fmt.Sprintf("%.1f", j[5]/j[0])
			}
			fmt.Printf("| %d | %d | %.1f | %d | %s |\n", n, seed, j0[5]/j0[0], steps, at)
		}
	}
}
