package key

import "spacesim/internal/vec"

// CenterSize returns the geometric center and edge length of the cell in a
// box anchored at boxLo with edge boxSize; the tests hold FromPosition to
// it.
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
