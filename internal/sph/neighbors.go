package sph

import (
	"spacesim/internal/vec"
)

// Grid is a uniform hash grid for fixed-radius neighbor queries, sized so
// one cell spans the largest kernel support in the particle set. The
// simulation no longer searches with it (see search.go): it remains as the
// oracle the tree search's neighbour sets are tested against, and because
// bench/'s neighbour probe replays BuildGrid and Neighbors by name.
type Grid struct {
	cell  float64
	inv   float64
	lo    vec.V3
	cells map[[3]int32][]int32
}

// BuildGrid indexes positions with the given cell size (use the maximum
// support radius).
func BuildGrid(pos []vec.V3, cell float64) *Grid {
	g := &Grid{cell: cell, inv: 1 / cell, cells: make(map[[3]int32][]int32, len(pos))}
	if len(pos) > 0 {
		g.lo = pos[0]
		for _, p := range pos {
			g.lo = vec.Min(g.lo, p)
		}
	}
	for i, p := range pos {
		k := g.key(p)
		g.cells[k] = append(g.cells[k], int32(i))
	}
	return g
}

func (g *Grid) key(p vec.V3) [3]int32 {
	return [3]int32{
		int32((p[0] - g.lo[0]) * g.inv),
		int32((p[1] - g.lo[1]) * g.inv),
		int32((p[2] - g.lo[2]) * g.inv),
	}
}

// Neighbors appends to out the indices of all particles within radius of p
// (including a particle exactly at p), and returns the extended slice.
func (g *Grid) Neighbors(pos []vec.V3, p vec.V3, radius float64, out []int32) []int32 {
	r2 := radius * radius
	k := g.key(p)
	reach := int32(radius*g.inv) + 1
	for dx := -reach; dx <= reach; dx++ {
		for dy := -reach; dy <= reach; dy++ {
			for dz := -reach; dz <= reach; dz++ {
				ck := [3]int32{k[0] + dx, k[1] + dy, k[2] + dz}
				for _, j := range g.cells[ck] {
					if pos[j].Sub(p).Norm2() <= r2 {
						out = append(out, j)
					}
				}
			}
		}
	}
	return out
}
