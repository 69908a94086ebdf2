package htree

import (
	"fmt"
	"math"

	"spacesim/internal/gravity"
	"spacesim/internal/key"
)

// CheckInvariants verifies structural invariants, returning the first
// violation found: every cell holds N bodies over its range, the root's is
// the body array and an internal cell's the span of its daughters' (so the
// leaves partition the body array), every body's key lies in its leaf,
// every Bmax is its range's farthest body from the center of mass to the
// bit, multipole masses match, child masks are consistent with the hash
// table and daughter links with both, the kernel-form body array mirrors
// Bodies, and every slab cell is reachable from the root.
func (t *Tree) CheckInvariants() error {
	root := t.Root()
	if root.N != len(t.Bodies) || root.Lo != 0 || root.Hi != len(t.Bodies) {
		return fmt.Errorf("root N = %d over [%d,%d), want %d over all", root.N, root.Lo, root.Hi, len(t.Bodies))
	}
	visited := 0
	var walk func(k key.K) error
	walk = func(k key.K) error {
		c, ok := t.Cell(k)
		if !ok {
			return fmt.Errorf("missing cell %v", k)
		}
		visited++
		if c.N < 0 || c.N != c.Hi-c.Lo {
			return fmt.Errorf("cell %v holds %d bodies over [%d,%d)", k, c.N, c.Lo, c.Hi)
		}
		bm2 := 0.0
		for i := c.Lo; i < c.Hi; i++ {
			if d2 := t.Bodies[i].Pos.Sub(c.Mp.COM).Norm2(); d2 > bm2 {
				bm2 = d2
			}
		}
		if c.Bmax != math.Sqrt(bm2) {
			return fmt.Errorf("cell %v Bmax %v, but its farthest body is %v from its center of mass", k, c.Bmax, math.Sqrt(bm2))
		}
		if c.Leaf {
			for i := c.Lo; i < c.Hi; i++ {
				if !k.Contains(t.Bodies[i].Key) {
					return fmt.Errorf("body %d key %v outside leaf %v", i, t.Bodies[i].Key, k)
				}
			}
			return nil
		}
		var mass float64
		ci, nk, at := t.store.find(k), 0, c.Lo
		for oct := 0; oct < 8; oct++ {
			has := c.ChildMask&(1<<uint(oct)) != 0
			child, inTab := t.Cell(k.Child(oct))
			if has != inTab {
				return fmt.Errorf("cell %v childmask/hash mismatch at octant %d", k, oct)
			}
			if has {
				if d := c.kids[nk]; d == 0 || &t.store.cells[ci+d] != child {
					return fmt.Errorf("cell %v daughter link %d (%+d) does not lead to octant %d", k, nk, d, oct)
				}
				if child.Lo != at {
					return fmt.Errorf("cell %v: daughter %v starts at body %d, want %d", k, child.Key, child.Lo, at)
				}
				at = child.Hi
				nk++
				if err := walk(k.Child(oct)); err != nil {
					return err
				}
				mass += child.Mp.M
			}
		}
		if nk < 8 && c.kids[nk] != 0 {
			return fmt.Errorf("cell %v has a daughter link past its %d daughters", k, nk)
		}
		if at != c.Hi {
			return fmt.Errorf("cell %v spans bodies [%d,%d) but its daughters end at %d", k, c.Lo, c.Hi, at)
		}
		if math.Abs(mass-c.Mp.M) > 1e-9*(1+math.Abs(c.Mp.M)) {
			return fmt.Errorf("cell %v mass %v but children sum %v", k, c.Mp.M, mass)
		}
		return nil
	}
	if err := walk(key.Root); err != nil {
		return err
	}
	if len(t.src) != len(t.Bodies) {
		return fmt.Errorf("%d kernel-form bodies for %d bodies", len(t.src), len(t.Bodies))
	}
	for i := range t.Bodies {
		if b := &t.Bodies[i]; t.src[i] != (gravity.Source{Pos: b.Pos, Mass: b.Mass}) {
			return fmt.Errorf("kernel-form body %d is %+v, body %d is %+v", i, t.src[i], i, *b)
		}
	}
	if visited != t.NumCells() {
		return fmt.Errorf("walk reached %d of %d stored cells", visited, t.NumCells())
	}
	return nil
}
