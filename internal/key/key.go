// Package key implements the Morton-ordered body and cell keys of the Hashed
// Oct-Tree (HOT) method of Warren & Salmon, as used by the Space Simulator
// applications.
//
// A key maps a point in 3-dimensional space to a 1-dimensional integer while
// preserving spatial locality (the self-similar curve of Figure 6 in the
// paper). Keys also implicitly define the topology of the oct-tree: the key
// of a parent, daughter, or sibling cell is computed by bit arithmetic alone,
// which is what makes the global hash-table addressing scheme work.
//
// Layout: a level-l cell key consists of a single leading "placeholder" 1 bit
// followed by 3*l interleaved coordinate bits (x,y,z from most significant
// triple to least). The root is key 1. Body keys live at MaxLevel = 21,
// using 64 bits total (1 + 63).
package key

import (
	"fmt"
	"math/bits"

	"spacesim/internal/vec"
)

// MaxLevel is the deepest tree level representable: 21 bits per coordinate.
const MaxLevel = 21

// coordBits is the number of bits kept per coordinate.
const coordBits = MaxLevel

// coordMax is the exclusive upper bound of an integer coordinate.
const coordMax = 1 << coordBits

// K is a hashed oct-tree key. The zero value is invalid; the root of the
// tree is Root (key 1).
type K uint64

// Root is the key of the root cell, covering the entire simulation box.
const Root K = 1

// Invalid is the zero key, used as a "no key" sentinel.
const Invalid K = 0

// FromCoords builds a body key from integer coordinates in [0, 2^21).
// Coordinates outside the range are clamped; the caller is expected to have
// scaled positions into the simulation box first.
func FromCoords(ix, iy, iz uint32) K {
	ix = clampCoord(ix)
	iy = clampCoord(iy)
	iz = clampCoord(iz)
	k := uint64(1) << 63 // placeholder bit for a level-21 key
	k |= spread(ix) << 2
	k |= spread(iy) << 1
	k |= spread(iz)
	return K(k)
}

// FromPosition maps a position inside the box [lo, lo+size)^3 to a body key.
// Points on or outside the boundary are clamped to the box edge.
func FromPosition(p vec.V3, lo vec.V3, size float64) K {
	inv := float64(coordMax) / size
	return FromCoords(
		scaleCoord((p[0]-lo[0])*inv),
		scaleCoord((p[1]-lo[1])*inv),
		scaleCoord((p[2]-lo[2])*inv),
	)
}

func scaleCoord(x float64) uint32 {
	if x < 0 {
		return 0
	}
	if x >= coordMax {
		return coordMax - 1
	}
	return uint32(x)
}

func clampCoord(c uint32) uint32 {
	if c >= coordMax {
		return coordMax - 1
	}
	return c
}

// Coords recovers the integer coordinates of a body key (level 21).
// For a shallower cell key it returns the coordinates of the cell's minimum
// corner at level-21 resolution.
func (k K) Coords() (ix, iy, iz uint32) {
	l := k.Level()
	body := uint64(k) &^ (uint64(1) << uint(3*l)) // strip placeholder
	body <<= uint(3 * (MaxLevel - l))             // align to level 21
	ix = compact(body >> 2)
	iy = compact(body >> 1)
	iz = compact(body)
	return
}

// Level returns the tree level of the key: 0 for the root, MaxLevel for a
// body key. Invalid (zero) keys return -1.
func (k K) Level() int {
	if k == 0 {
		return -1
	}
	return (63 - bits.LeadingZeros64(uint64(k))) / 3
}

// Valid reports whether k is a structurally valid key: nonzero and with its
// placeholder bit at a multiple-of-3 position.
func (k K) Valid() bool {
	if k == 0 {
		return false
	}
	return (63-bits.LeadingZeros64(uint64(k)))%3 == 0
}

// Parent returns the key of the enclosing cell one level up. The parent of
// the root is the root itself.
func (k K) Parent() K {
	if k <= Root {
		return Root
	}
	return k >> 3
}

// AncestorAt returns the ancestor of k at the given level. If level is not
// shallower than k's own level, k itself is returned.
func (k K) AncestorAt(level int) K {
	l := k.Level()
	if level >= l {
		return k
	}
	if level < 0 {
		level = 0
	}
	return k >> uint(3*(l-level))
}

// Child returns the key of daughter octant i (0..7). Octant bit order is
// (x<<2 | y<<1 | z) of the half-space selectors.
func (k K) Child(i int) K {
	return k<<3 | K(i&7)
}

// Octant returns which daughter of its parent this key is (0..7).
func (k K) Octant() int {
	return int(k & 7)
}

// Contains reports whether cell key k is an ancestor-or-self of key b.
func (k K) Contains(b K) bool {
	lk, lb := k.Level(), b.Level()
	if lk > lb {
		return false
	}
	return b.AncestorAt(lk) == k
}

// Overlaps reports whether cells k and b share any point: one is an
// ancestor-or-self of the other (octree cells are nested or disjoint).
func (k K) Overlaps(b K) bool {
	lk, lb := k.Level(), b.Level()
	if lk > lb {
		k, b, lk, lb = b, k, lb, lk
	}
	return b>>uint(3*(lb-lk)) == k
}

// BodyKeyRange returns the half-open range [lo, hi) of level-MaxLevel body
// keys contained in cell k. This is how the domain decomposition maps a
// split of the 1-D key list back onto space.
//
// Caution: for the rightmost cell of each level (the one whose range ends at
// the top of key space) hi wraps around to a value <= lo; callers must treat
// hi <= lo as "extends to the end of key space". The difference hi-lo is
// always the correct range width in uint64 arithmetic.
func (k K) BodyKeyRange() (lo, hi K) {
	l := k.Level()
	shift := uint(3 * (MaxLevel - l))
	lo = k << shift
	hi = (k + 1) << shift
	return
}

// CenterSize returns the geometric center and edge length of the cell in a
// box anchored at boxLo with edge boxSize.
func (k K) CenterSize(boxLo vec.V3, boxSize float64) (center vec.V3, size float64) {
	l := k.Level()
	size = boxSize / float64(uint64(1)<<uint(l))
	ix, iy, iz := k.Coords()
	cell := boxSize / float64(coordMax)
	center = vec.V3{
		boxLo[0] + float64(ix)*cell + size/2,
		boxLo[1] + float64(iy)*cell + size/2,
		boxLo[2] + float64(iz)*cell + size/2,
	}
	return
}

// String renders the key as level:octal-path, e.g. "3:052".
func (k K) String() string {
	if k == 0 {
		return "invalid"
	}
	l := k.Level()
	path := make([]byte, l)
	kk := k
	for i := l - 1; i >= 0; i-- {
		path[i] = byte('0' + kk.Octant())
		kk = kk.Parent()
	}
	return fmt.Sprintf("%d:%s", l, string(path))
}

// spread inserts two zero bits between each of the low 21 bits of x.
func spread(x uint32) uint64 {
	v := uint64(x) & 0x1fffff
	v = (v | v<<32) & 0x1f00000000ffff
	v = (v | v<<16) & 0x1f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// compact is the inverse of spread: it extracts every third bit.
func compact(v uint64) uint32 {
	v &= 0x1249249249249249
	v = (v ^ v>>2) & 0x10c30c30c30c30c3
	v = (v ^ v>>4) & 0x100f00f00f00f00f
	v = (v ^ v>>8) & 0x1f0000ff0000ff
	v = (v ^ v>>16) & 0x1f00000000ffff
	v = (v ^ v>>32) & 0x1fffff
	return uint32(v)
}
