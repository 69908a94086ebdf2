package cosmo

import (
	"math"
	"sort"

	"spacesim/internal/vec"
)

// FoF is the friends-of-friends halo finder: particles closer than the
// linking length belong to the same group — the standard tool for
// extracting dark-matter halos from N-body output ("examine the
// sub-structure of dark matter halos", Section 4.3).

// Halo is one friends-of-friends group.
type Halo struct {
	N      int
	Mass   float64
	Center vec.V3
	// Rmax is the maximum member distance from the center of mass.
	Rmax float64
	// Members holds the particle indices.
	Members []int
}

// FoFGroups links particles with the given linking length (same units as
// positions; the convention is b times the mean interparticle spacing,
// b ~ 0.2) and returns groups with at least minMembers, sorted by
// descending mass. Periodic boundaries are not applied; callers with
// periodic boxes should pass pre-wrapped replicas or accept edge effects.
func FoFGroups(pos []vec.V3, mass []float64, link float64, minMembers int) []Halo {
	n := len(pos)
	// spatial hash on cells of the linking length
	cells := map[[3]int32][]int32{}
	inv := 1 / link
	key := func(p vec.V3) [3]int32 {
		return [3]int32{int32(p[0] * inv), int32(p[1] * inv), int32(p[2] * inv)}
	}
	for i, p := range pos {
		k := key(p)
		cells[k] = append(cells[k], int32(i))
	}
	// union-find
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(i int32) int32
	find = func(i int32) int32 {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	l2 := link * link
	for i := 0; i < n; i++ {
		k := key(pos[i])
		for dx := int32(-1); dx <= 1; dx++ {
			for dy := int32(-1); dy <= 1; dy++ {
				for dz := int32(-1); dz <= 1; dz++ {
					ck := [3]int32{k[0] + dx, k[1] + dy, k[2] + dz}
					for _, j := range cells[ck] {
						if int(j) > i && pos[j].Sub(pos[i]).Norm2() <= l2 {
							union(int32(i), j)
						}
					}
				}
			}
		}
	}
	groups := map[int32][]int{}
	for i := 0; i < n; i++ {
		r := find(int32(i))
		groups[r] = append(groups[r], i)
	}
	var out []Halo
	for _, members := range groups {
		if len(members) < minMembers {
			continue
		}
		h := Halo{N: len(members), Members: members}
		for _, i := range members {
			h.Mass += mass[i]
			h.Center = h.Center.AddScaled(mass[i], pos[i])
		}
		h.Center = h.Center.Scale(1 / h.Mass)
		for _, i := range members {
			if d := pos[i].Dist(h.Center); d > h.Rmax {
				h.Rmax = d
			}
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Mass > out[j].Mass })
	return out
}

// TwoPointCorrelation estimates xi(r) with the natural estimator
// DD/RR - 1 on logarithmic bins between rMin and rMax, using a periodic
// box of edge box (minimum-image distances) and the analytic RR of a
// uniform distribution.
func TwoPointCorrelation(pos []vec.V3, box float64, rMin, rMax float64, nbins int) (r []float64, xi []float64) {
	n := len(pos)
	counts := make([]float64, nbins)
	logMin := math.Log(rMin)
	dlog := (math.Log(rMax) - logMin) / float64(nbins)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := minImage(pos[i].Sub(pos[j]), box).Norm()
			if d < rMin || d >= rMax {
				continue
			}
			b := int((math.Log(d) - logMin) / dlog)
			if b >= 0 && b < nbins {
				counts[b] += 2 // each pair counts both directions
			}
		}
	}
	dens := float64(n) / (box * box * box)
	for b := 0; b < nbins; b++ {
		lo := math.Exp(logMin + float64(b)*dlog)
		hi := math.Exp(logMin + float64(b+1)*dlog)
		shell := 4.0 / 3.0 * math.Pi * (hi*hi*hi - lo*lo*lo)
		expected := float64(n) * dens * shell // expected directed pairs
		r = append(r, math.Exp(logMin+(float64(b)+0.5)*dlog))
		if expected > 0 {
			xi = append(xi, counts[b]/expected-1)
		} else {
			xi = append(xi, 0)
		}
	}
	return r, xi
}

func minImage(d vec.V3, box float64) vec.V3 {
	for c := 0; c < 3; c++ {
		for d[c] > box/2 {
			d[c] -= box
		}
		for d[c] < -box/2 {
			d[c] += box
		}
	}
	return d
}
