package npb

import "spacesim/internal/mp"

// field is a rank's z-slab of a g^3 grid, the layout CG, MG, FT and BT/SP
// share: rank k of P holds planes [k*g/P, (k+1)*g/P) in v, indexed
// [(z*g+y)*g+x]. down and up are the planes just below and above it; a nil
// halo plane is the Dirichlet-0 boundary.
type field struct {
	g           int
	v, down, up []float64
}

// exchanged returns v's slab with its z-neighbours' facing planes as
// halos. acctBytes is the accounted wire size of each halo plane.
func exchanged(r *mp.Rank, g int, v []float64, acctBytes int64) field {
	up, down := exchangeHalos(r, v[:g*g], v[len(v)-g*g:], acctBytes)
	return field{g: g, v: v, down: down, up: up}
}

// plane returns the slab's local plane z, reaching into the halo below at
// z = -1 and above at z = nz.
func (f field) plane(z int) []float64 {
	n := f.g * f.g
	switch {
	case z < 0:
		return f.down
	case z*n >= len(f.v):
		return f.up
	}
	return f.v[z*n : (z+1)*n]
}

// planeAt reads the g x g plane pl at (x, y): zero off the domain and on a
// nil (Dirichlet-0) plane.
func planeAt(pl []float64, g, x, y int) float64 {
	if pl == nil || uint(x) >= uint(g) || uint(y) >= uint(g) {
		return 0
	}
	return pl[y*g+x]
}

// laplacian returns (6I - shifts) v on the slab.
func (f field) laplacian() []float64 {
	g := f.g
	out := make([]float64, len(f.v))
	for z := 0; z < len(f.v)/(g*g); z++ {
		below, here, above := f.plane(z-1), f.plane(z), f.plane(z+1)
		for y := 0; y < g; y++ {
			for x := 0; x < g; x++ {
				i := y*g + x
				out[z*g*g+i] = 6*here[i] -
					planeAt(here, g, x-1, y) - planeAt(here, g, x+1, y) -
					planeAt(here, g, x, y-1) - planeAt(here, g, x, y+1) -
					planeAt(below, g, x, y) - planeAt(above, g, x, y)
			}
		}
	}
	return out
}

// exchangeHalos swaps the bottom plane with rank-1 and the top plane with
// rank+1 (non-periodic). Returns the plane above (from rank+1's bottom) and
// below (from rank-1's top); nil at domain boundaries.
func exchangeHalos(r *mp.Rank, bottom, top []float64, acctBytes int64) (up, down []float64) {
	const tag = 71
	me, n := r.ID(), r.Size()
	if n == 1 {
		return nil, nil
	}
	if me > 0 {
		r.Send(me-1, tag, append([]float64(nil), bottom...), acctBytes)
	}
	if me < n-1 {
		r.Send(me+1, tag, append([]float64(nil), top...), acctBytes)
	}
	if me < n-1 {
		d, _ := r.Recv(me+1, tag)
		up = d.([]float64)
	}
	if me > 0 {
		d, _ := r.Recv(me-1, tag)
		down = d.([]float64)
	}
	return up, down
}

// transpose redistributes the z-slabs in ([z-local][y][x]) into x-pencils
// ([x-local][y][z-global]) when toPencils is set, and back otherwise. Every
// pair of ranks trades one w x g x w block in one all-to-all; acct is the
// accounted wire size of each block.
func transpose[T any](r *mp.Rank, in []T, g int, acct int64, toPencils bool) []T {
	p := r.Size()
	w := g / p // slab depth and pencil width
	// Block d's point (z, y, x), with z and x counted within the block,
	// sits at d*w + z*sz + y*g + x*sx in the pencils or the slabs.
	strides := func(pencils bool) (sz, sx int) {
		if pencils {
			return 1, g * g
		}
		return g * g, 1
	}
	sz, sx := strides(!toPencils)
	chunks := make([]any, p)
	sizes := make([]int64, p)
	for d := range p {
		buf := make([]T, 0, w*g*w)
		for z := range w {
			for y := range g {
				for x := range w {
					buf = append(buf, in[d*w+z*sz+y*g+x*sx])
				}
			}
		}
		chunks[d], sizes[d] = buf, acct
	}
	sz, sx = strides(toPencils)
	out := make([]T, len(in))
	for src, c := range r.AlltoallAny(chunks, sizes) {
		buf := c.([]T)
		k := 0
		for z := range w {
			for y := range g {
				for x := range w {
					out[src*w+z*sz+y*g+x*sx] = buf[k]
					k++
				}
			}
		}
	}
	return out
}
