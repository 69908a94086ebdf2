package key

import (
	"slices"

	"spacesim/internal/par"
)

// keysort.go implements a parallel least-significant-digit radix sort over
// 64-bit Morton keys, the one key sort of the decomposition and the tree
// build: a Plummer sphere's key distribution is close to uniform over the
// high bits, so the 8x8-bit counting passes beat sort.Slice by a wide margin
// and, unlike it, are stable.
//
// Determinism: the output permutation is a pure function of the input keys —
// it does not depend on the worker count. Each pass splits the input into
// fixed chunks, builds per-chunk digit histograms, and computes scatter
// offsets with a digit-major, chunk-minor prefix sum. A record in chunk c is
// therefore placed after every record with a smaller digit and after every
// equal-digit record from chunks < c (and earlier in its own chunk) — exactly
// the stable serial order. Combined with the initial identity permutation,
// ties on the full key come out ordered by original index, which is the
// (Key, ID) order the tree build needs for coincident bodies.

const (
	radixBits    = 8
	radixBuckets = 1 << radixBits
	radixPasses  = 64 / radixBits
	// radixMinChunk bounds the per-worker chunk size from below so tiny
	// inputs do not pay per-goroutine overhead for a handful of keys.
	radixMinChunk = 2048
)

type sortPair struct {
	k  K
	id int32
}

// Sorter holds the scratch buffers of SortPerm so steady-state per-step
// sorts allocate nothing. The zero value is ready to use; a Sorter must not
// be used from multiple goroutines at once.
type Sorter struct {
	a, b  []sortPair
	perm  []int32
	count [][radixBuckets]int32
}

// SortPerm computes the permutation that stably sorts keys ascending: the
// returned slice p satisfies keys[p[0]] <= keys[p[1]] <= ... with ties in
// original-index order. workers < 1 means GOMAXPROCS (par.Width). The result
// is identical for every worker count; it aliases internal scratch and is
// valid until the next SortPerm call. Inputs are limited to n < 2^31 (ids
// are int32, matching the tree's body-count limits).
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
	if slices.IsSorted(keys) {
		for i := range s.perm {
			s.perm[i] = int32(i)
		}
		return s.perm
	}

	// Chunk c is [n*c/chunks, n*(c+1)/chunks), a fixed partition that
	// depends only on (n, chunks), never on scheduling.
	chunks := par.Width(workers, (n+radixMinChunk-1)/radixMinChunk)
	if len(s.count) < chunks {
		s.count = make([][radixBuckets]int32, chunks)
	}

	src, dst := s.a, s.b
	par.For(chunks, workers, func(_, c int) {
		lo, hi := n*c/chunks, n*(c+1)/chunks
		for i := lo; i < hi; i++ {
			src[i] = sortPair{k: keys[i], id: int32(i)}
		}
	})

	for pass := 0; pass < radixPasses; pass++ {
		shift := uint(pass * radixBits)
		par.For(chunks, workers, func(_, c int) {
			lo, hi := n*c/chunks, n*(c+1)/chunks
			cnt := &s.count[c]
			for d := range cnt {
				cnt[d] = 0
			}
			for i := lo; i < hi; i++ {
				cnt[uint8(src[i].k>>shift)]++
			}
		})

		// Digit-major, chunk-minor exclusive prefix sum: count[c][d]
		// becomes the first output slot for chunk c's digit-d records.
		// If one digit holds every record the pass is the identity —
		// skip it (common for the high placeholder-adjacent bytes).
		total := int32(0)
		skip := false
		for d := 0; d < radixBuckets; d++ {
			for c := 0; c < chunks; c++ {
				v := s.count[c][d]
				s.count[c][d] = total
				total += v
			}
			if total == int32(n) && s.count[0][d] == 0 {
				skip = true
			}
		}
		if skip {
			continue
		}

		par.For(chunks, workers, func(_, c int) {
			lo, hi := n*c/chunks, n*(c+1)/chunks
			cnt := &s.count[c]
			for i := lo; i < hi; i++ {
				d := uint8(src[i].k >> shift)
				dst[cnt[d]] = src[i]
				cnt[d]++
			}
		})
		src, dst = dst, src
	}

	perm := s.perm
	par.For(chunks, workers, func(_, c int) {
		lo, hi := n*c/chunks, n*(c+1)/chunks
		for i := lo; i < hi; i++ {
			perm[i] = src[i].id
		}
	})
	return perm
}
