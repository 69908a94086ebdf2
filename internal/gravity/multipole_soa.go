package gravity

// MultipoleSoA is an interaction list of accepted cell multipoles in
// structure-of-arrays layout: centers of mass, masses, and the six
// components of the traceless quadrupole tensor (vec.Sym33 order: xx, yy,
// zz, xy, xz, yz) in parallel arrays. The traversal accumulates accepted
// cells here in walk order, exactly the way direct-interaction bodies
// accumulate in a SoA, so the batched cell kernels stream flat []float64
// arrays instead of calling Multipole.AccelAt per (cell, sink) pair.
type MultipoleSoA struct {
	CX, CY, CZ, M                []float64
	QXX, QYY, QZZ, QXY, QXZ, QYZ []float64
}

// Len returns the number of cells on the list.
func (c *MultipoleSoA) Len() int { return len(c.CX) }

// Reset empties the list, keeping the backing arrays for reuse.
func (c *MultipoleSoA) Reset() {
	c.CX, c.CY, c.CZ, c.M = c.CX[:0], c.CY[:0], c.CZ[:0], c.M[:0]
	c.QXX, c.QYY, c.QZZ = c.QXX[:0], c.QYY[:0], c.QZZ[:0]
	c.QXY, c.QXZ, c.QYZ = c.QXY[:0], c.QXZ[:0], c.QYZ[:0]
}

// Push appends one accepted cell.
func (c *MultipoleSoA) Push(m *Multipole) {
	c.CX = append(c.CX, m.COM[0])
	c.CY = append(c.CY, m.COM[1])
	c.CZ = append(c.CZ, m.COM[2])
	c.M = append(c.M, m.M)
	c.QXX = append(c.QXX, m.Q[0])
	c.QYY = append(c.QYY, m.Q[1])
	c.QZZ = append(c.QZZ, m.Q[2])
	c.QXY = append(c.QXY, m.Q[3])
	c.QXZ = append(c.QXZ, m.Q[4])
	c.QYZ = append(c.QYZ, m.Q[5])
}

// At reassembles entry i as a Multipole (test and reference-path helper;
// the hot path never materializes one).
func (c *MultipoleSoA) At(i int) Multipole {
	var m Multipole
	m.COM[0], m.COM[1], m.COM[2] = c.CX[i], c.CY[i], c.CZ[i]
	m.M = c.M[i]
	m.Q[0], m.Q[1], m.Q[2] = c.QXX[i], c.QYY[i], c.QZZ[i]
	m.Q[3], m.Q[4], m.Q[5] = c.QXY[i], c.QXZ[i], c.QYZ[i]
	return m
}

// Sort orders the list canonically by (COM, M), with the quadrupole
// components as final tie-breakers. Distinct cells have distinct centers
// of mass and identical entries are interchangeable under summation, so
// the kernels' in-order accumulation becomes a canonical function of the
// cell *set*. Like SoA.Sort, no longer called by the parallel engine: a
// test oracle (core.TestSeedDigestFromSortedLists) and a bench probe.
func (c *MultipoleSoA) Sort() {
	msoaQuickSort(c, 0, c.Len()-1)
}

func msoaLess(c *MultipoleSoA, i, j int) bool {
	if c.CX[i] != c.CX[j] {
		return c.CX[i] < c.CX[j]
	}
	if c.CY[i] != c.CY[j] {
		return c.CY[i] < c.CY[j]
	}
	if c.CZ[i] != c.CZ[j] {
		return c.CZ[i] < c.CZ[j]
	}
	if c.M[i] != c.M[j] {
		return c.M[i] < c.M[j]
	}
	if c.QXX[i] != c.QXX[j] {
		return c.QXX[i] < c.QXX[j]
	}
	if c.QYY[i] != c.QYY[j] {
		return c.QYY[i] < c.QYY[j]
	}
	if c.QZZ[i] != c.QZZ[j] {
		return c.QZZ[i] < c.QZZ[j]
	}
	if c.QXY[i] != c.QXY[j] {
		return c.QXY[i] < c.QXY[j]
	}
	if c.QXZ[i] != c.QXZ[j] {
		return c.QXZ[i] < c.QXZ[j]
	}
	return c.QYZ[i] < c.QYZ[j]
}

func msoaSwap(c *MultipoleSoA, i, j int) {
	c.CX[i], c.CX[j] = c.CX[j], c.CX[i]
	c.CY[i], c.CY[j] = c.CY[j], c.CY[i]
	c.CZ[i], c.CZ[j] = c.CZ[j], c.CZ[i]
	c.M[i], c.M[j] = c.M[j], c.M[i]
	c.QXX[i], c.QXX[j] = c.QXX[j], c.QXX[i]
	c.QYY[i], c.QYY[j] = c.QYY[j], c.QYY[i]
	c.QZZ[i], c.QZZ[j] = c.QZZ[j], c.QZZ[i]
	c.QXY[i], c.QXY[j] = c.QXY[j], c.QXY[i]
	c.QXZ[i], c.QXZ[j] = c.QXZ[j], c.QXZ[i]
	c.QYZ[i], c.QYZ[j] = c.QYZ[j], c.QYZ[i]
}

// msoaQuickSort mirrors soaQuickSort over the ten parallel arrays:
// median-of-three quicksort with insertion sort below 12 elements,
// allocation-free in the hot path.
func msoaQuickSort(c *MultipoleSoA, lo, hi int) {
	for hi-lo > 11 {
		mid := lo + (hi-lo)/2
		if msoaLess(c, mid, lo) {
			msoaSwap(c, mid, lo)
		}
		if msoaLess(c, hi, mid) {
			msoaSwap(c, hi, mid)
			if msoaLess(c, mid, lo) {
				msoaSwap(c, mid, lo)
			}
		}
		msoaSwap(c, mid, hi-1)
		p := hi - 1
		i, j := lo, hi-1
		for {
			i++
			for msoaLess(c, i, p) {
				i++
			}
			j--
			for msoaLess(c, p, j) {
				j--
			}
			if i >= j {
				break
			}
			msoaSwap(c, i, j)
		}
		msoaSwap(c, i, hi-1)
		// Recurse into the smaller side, loop on the larger.
		if i-lo < hi-i {
			msoaQuickSort(c, lo, i-1)
			lo = i + 1
		} else {
			msoaQuickSort(c, i+1, hi)
			hi = i - 1
		}
	}
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && msoaLess(c, j, j-1); j-- {
			msoaSwap(c, j, j-1)
		}
	}
}
