package key

import "slices"

// keysort.go implements a least-significant-digit radix sort over 64-bit
// Morton keys, the one key sort of the decomposition and the tree build: a
// Plummer sphere's key distribution is close to uniform over the high bits,
// so the 8x8-bit counting passes beat sort.Slice by a wide margin and,
// unlike it, are stable. Started from the identity permutation, ties on the
// full key come out ordered by original index, which is the (Key, ID) order
// the tree build needs for coincident bodies.

const (
	radixBits    = 8
	radixBuckets = 1 << radixBits
	radixPasses  = 64 / radixBits
)

type sortPair struct {
	k  K
	id int32
}

// Sorter holds the scratch buffers of SortPerm so steady-state per-step
// sorts allocate nothing. The zero value is ready to use; a Sorter must not
// be used from multiple goroutines at once.
type Sorter struct {
	a, b []sortPair
	perm []int32
}

// SortPerm computes the permutation that stably sorts keys ascending: the
// returned slice p satisfies keys[p[0]] <= keys[p[1]] <= ... with ties in
// original-index order. It aliases internal scratch and is valid until the
// next SortPerm call. Inputs are limited to n < 2^31 (ids are int32,
// matching the tree's body-count limits).
//
// workers is read by no code: retained for bench/, which spells
// SortPerm(keys, 1). The sort runs on the calling goroutine. Goes with the
// next [benchmark] PR.
//
// Keys that are already non-decreasing — the tree build's, whenever its
// bodies come from a key-sorted decomposition — get the identity, which is
// exactly the stable answer, without a radix pass.
func (s *Sorter) SortPerm(keys []K, workers int) []int32 {
	n := len(keys)
	if cap(s.a) < n {
		s.a = make([]sortPair, n)
		s.b = make([]sortPair, n)
		s.perm = make([]int32, n)
	}
	s.a, s.b, s.perm = s.a[:n], s.b[:n], s.perm[:n]
	perm := s.perm
	if slices.IsSorted(keys) {
		for i := range perm {
			perm[i] = int32(i)
		}
		return perm
	}

	// A pass's digit counts do not depend on the order of the records, so
	// one scan of the keys counts every pass's.
	var count [radixPasses][radixBuckets]int32
	src, dst := s.a, s.b
	for i, k := range keys {
		src[i] = sortPair{k: k, id: int32(i)}
		for pass := range count {
			count[pass][uint8(k>>(pass*radixBits))]++
		}
	}
	for pass := range count {
		shift := uint(pass * radixBits)
		cnt := &count[pass]
		// If one digit holds every record the pass is the identity: skip
		// it (common for the high placeholder-adjacent bytes).
		if cnt[uint8(src[0].k>>shift)] == int32(n) {
			continue
		}
		// Exclusive prefix sum: cnt[d] becomes the first output slot of
		// the digit-d records, which keep their order.
		total := int32(0)
		for d, c := range cnt {
			cnt[d], total = total, total+c
		}
		for _, p := range src {
			d := uint8(p.k >> shift)
			dst[cnt[d]] = p
			cnt[d]++
		}
		src, dst = dst, src
	}
	for i := range perm {
		perm[i] = src[i].id
	}
	return perm
}
