package htree

import "spacesim/internal/key"

// cellStore is the flat hashed cell container: all cells live in one
// contiguous slab and a separate open-addressing index maps a cell's Morton
// key to its slab position. This is the literal "hash table used to
// translate the key into a pointer" of the HOT paper, minus the per-cell
// pointer: a lookup costs one multiplicative hash and (almost always) one
// probe into an int32 array, and building a tree allocates two slices
// instead of one map entry per cell. The hash serves whoever has only a
// key — a fetch request from another rank, the branch search, Tree.Cell,
// the root of a walk; the walks themselves go from a cell to its daughters
// by slab position (Cell.kids) and never come here.
type cellStore struct {
	// cells is the slab. Construction appends the cells in pre-order,
	// daughters in octant order, so a forward scan meets leaves in
	// ascending Lo order (see Tree.Leaves).
	cells []Cell
	// tab holds slab index + 1, with 0 meaning empty. Its length is always
	// a power of two at least twice the cell count, so linear probing
	// stays short and always terminates on an empty slot.
	tab []int32
	// shift extracts the top log2(len(tab)) bits of the hash product.
	shift uint
}

// fibMul is 2^64/phi, the multiplicative (Fibonacci) hashing constant: it
// spreads the low-entropy structured Morton keys across the high product
// bits, which slot() keeps.
const fibMul = 0x9E3779B97F4A7C15

func (cs *cellStore) slot(k key.K) uint64 {
	return (uint64(k) * fibMul) >> cs.shift
}

// index sizes the hash table to the slab and fills it: a power of two at
// least twice the cell count, so the load factor stays at or below one
// half. A table already large enough keeps its size and is cleared.
func (cs *cellStore) index() {
	need := 16
	for need < 2*len(cs.cells) {
		need <<= 1
	}
	if len(cs.tab) < need {
		cs.tab = make([]int32, need)
	} else {
		clear(cs.tab)
	}
	bits := uint(0)
	for 1<<bits < len(cs.tab) {
		bits++
	}
	cs.shift = 64 - bits
	// Keys are unique within a build, so no equality probe is needed on
	// the way in.
	mask := uint64(len(cs.tab) - 1)
	for idx := range cs.cells {
		i := cs.slot(cs.cells[idx].Key)
		for cs.tab[i] != 0 {
			i = (i + 1) & mask
		}
		cs.tab[i] = int32(idx) + 1
	}
}

// find returns the slab position of the cell stored under k, or -1.
func (cs *cellStore) find(k key.K) int32 {
	if len(cs.tab) == 0 {
		return -1
	}
	mask := uint64(len(cs.tab) - 1)
	i := cs.slot(k)
	for {
		ci := cs.tab[i]
		if ci == 0 {
			return -1
		}
		if cs.cells[ci-1].Key == k {
			return ci - 1
		}
		i = (i + 1) & mask
	}
}

// get returns the cell stored under k, or nil.
func (cs *cellStore) get(k key.K) *Cell {
	if i := cs.find(k); i >= 0 {
		return &cs.cells[i]
	}
	return nil
}
