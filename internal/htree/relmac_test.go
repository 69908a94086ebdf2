package htree

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"

	"spacesim/internal/gravity"
	"spacesim/internal/key"
	"spacesim/internal/vec"
)

// tableBodies samples n equal-mass bodies: a Plummer sphere of scale radius 1
// (radius from the cumulative mass profile) or a uniform sphere of radius 1,
// each position along an isotropic direction.
func tableBodies(shape string, n int, seed int64) ([]vec.V3, []float64) {
	rng := rand.New(rand.NewSource(seed))
	pos, mass := make([]vec.V3, n), make([]float64, n)
	for i := range pos {
		var r float64
		if shape == "plummer" {
			r = 1 / math.Sqrt(math.Pow(rng.Float64(), -2.0/3.0)-1)
		} else {
			r = math.Cbrt(rng.Float64())
		}
		u, ph := 2*rng.Float64()-1, 2*math.Pi*rng.Float64()
		s := math.Sqrt(1 - u*u)
		pos[i] = vec.V3{r * s * math.Cos(ph), r * s * math.Sin(ph), r * u}
		mass[i] = 1 / float64(n)
	}
	return pos, mass
}

// gatherRelative appends group g's interaction list under an
// acceleration-relative acceptance rule: a cell holding none of g's bodies
// is accepted when d > Bmax and M Bmax^3 / d^5 <= alpha amin, d being the
// distance from the cell's centre of mass to g's bounding sphere and amin the
// smallest |a| over g's bodies. Rejected leaves go on the list as bodies.
func gatherRelative(t *Tree, g *Cell, alpha, amin float64, sc *BucketScratch) {
	center, radius := g.BoundingSphere()
	own := NewGroupMAC(g, 1)
	cells := t.store.cells
	stack := []int32{t.store.find(key.Root)}
	for len(stack) > 0 {
		ci := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := &cells[ci]
		d := c.Mp.COM.Dist(center) - radius
		switch {
		case !own.Owns(c.Lo, c.Hi) && d > c.Bmax && c.Mp.M*c.Bmax*c.Bmax*c.Bmax <= alpha*amin*math.Pow(d, 5):
			sc.List.Cells = append(sc.List.Cells, &c.Mp)
		case c.Leaf:
			sc.List.Segs = append(sc.List.Segs, t.src[c.Lo:c.Hi])
		default:
			for _, k := range c.kids {
				if k == 0 {
					break
				}
				stack = append(stack, ci+k)
			}
		}
	}
}

// TestRelativeMACTable prints, for 32768 Plummer and uniform-sphere bodies
// (MaxLeaf 16, sink groups of up to 80), the force error against direct
// summation with the libm kernel on 2048 sample bodies and the interactions
// per body, for the geometric opening angle at four values beside the
// acceleration-relative rule of gatherRelative at a sweep of alpha, |a| taken
// from the theta 0.7 evaluation. It asserts nothing: it is the measurement
// ROADMAP item 4(c) is scoped by.
//
//	SPACESIM_TABLES=1 go test ./internal/htree -run TestRelativeMACTable -v
func TestRelativeMACTable(t *testing.T) {
	if os.Getenv("SPACESIM_TABLES") == "" {
		t.Skip("prints a table; set SPACESIM_TABLES=1 to run it")
	}
	const n, samples, eps = 32768, 2048, 0.01
	fmt.Println("| bodies | rule | parameter | median | p99 | rms | interactions/body |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, shape := range []string{"plummer", "uniform"} {
		pos, mass := tableBodies(shape, n, 1)
		tr, err := Build(pos, mass, Options{MaxLeaf: 16})
		if err != nil {
			t.Fatal(err)
		}
		src := make([]gravity.Source, n)
		for i := range src {
			src[i] = gravity.Source{Pos: pos[i], Mass: mass[i]}
		}
		ref := make([]vec.V3, samples)
		for k := range ref {
			ref[k], _ = gravity.KernelLibm(pos[k*n/samples], src, eps*eps)
		}
		row := func(rule string, param float64, acc []vec.V3, interactions int) {
			var num, den float64
			rel := make([]float64, 0, samples)
			for k := range ref {
				d2, r2 := acc[k*n/samples].Sub(ref[k]).Norm2(), ref[k].Norm2()
				num, den = num+d2, den+r2
				rel = append(rel, math.Sqrt(d2/r2))
			}
			slices.Sort(rel)
			fmt.Printf("| %s | %s | %.3g | %.3g | %.3g | %.3g | %.0f |\n", shape, rule, param,
				rel[samples/2], rel[samples*99/100], math.Sqrt(num/den), float64(interactions)/n)
		}
		var a07 []vec.V3
		for _, theta := range []float64{0.7, 0.8, 0.9, 1.0} {
			acc, _, st := tr.AccelAllGrouped(theta, eps, false, gravity.Float64, 2)
			if theta == 0.7 {
				a07 = acc
			}
			row("BH theta", theta, acc, st.CellInteractions+st.BodyInteractions)
		}
		for _, alpha := range []float64{2e-3, 4e-3, 8e-3, 12e-3, 16e-3, 24e-3, 32e-3, 40e-3, 48e-3, 64e-3} {
			acc, pot := make([]vec.V3, n), make([]float64, n)
			interactions := 0
			var sc BucketScratch
			for _, g := range tr.Groups() {
				amin := math.Inf(1)
				for _, b := range tr.Bodies[g.Lo:g.Hi] {
					amin = math.Min(amin, a07[b.ID].Norm())
				}
				sc.Reset()
				gatherRelative(tr, g, alpha, amin, &sc)
				ns := g.Hi - g.Lo
				interactions += ns*len(sc.List.Cells) + ns*sc.List.Bodies() - ns
				tr.EvalBucket(g, eps, &sc, acc, pot)
			}
			row("relative alpha", alpha, acc, interactions)
		}
	}
}
