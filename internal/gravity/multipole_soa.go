package gravity

// MultipoleSoA is an owned list of accepted cell multipoles: the rows a
// caller pushes, for lists whose cells live nowhere else (the benchmark
// probes). The cell kernel reads a list of
// pointers, so evaluating one references its rows in order. Like SoA the
// name dates from the parallel-array layout and is what bench/ spells.
type MultipoleSoA struct {
	rows []Multipole
	refs []*Multipole // scratch of Refs
}

// Len returns the number of cells on the list.
func (c *MultipoleSoA) Len() int { return len(c.rows) }

// Reset empties the list, keeping the backing arrays for reuse.
func (c *MultipoleSoA) Reset() { c.rows = c.rows[:0] }

// Push appends one accepted cell.
func (c *MultipoleSoA) Push(m *Multipole) { c.rows = append(c.rows, *m) }

// At returns entry i.
func (c *MultipoleSoA) At(i int) Multipole { return c.rows[i] }

// Refs returns the list as the cell kernel takes it, a pointer to each row
// in order, valid until the next Push, Sort or Refs.
func (c *MultipoleSoA) Refs() []*Multipole {
	c.refs = c.refs[:0]
	for i := range c.rows {
		c.refs = append(c.refs, &c.rows[i])
	}
	return c.refs
}

// Sort orders the list canonically by (COM, M), with the quadrupole
// components as final tie-breakers. Distinct cells have distinct centers
// of mass and identical entries are interchangeable under summation, so
// the kernels' in-order accumulation becomes a canonical function of the
// cell *set*. Like SoA.Sort, no longer called by the parallel engine: a
// test oracle (core.TestSeedDigestFromSortedLists) and a bench probe.
func (c *MultipoleSoA) Sort() { sortRows(c.rows, lessMultipoles) }

func lessMultipoles(a, b *Multipole) bool {
	for i := range a.COM {
		if a.COM[i] != b.COM[i] {
			return a.COM[i] < b.COM[i]
		}
	}
	if a.M != b.M {
		return a.M < b.M
	}
	for i := range a.Q { // xx, yy, zz, xy, xz, yz
		if a.Q[i] != b.Q[i] {
			return a.Q[i] < b.Q[i]
		}
	}
	return false
}
