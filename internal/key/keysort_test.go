package key

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refPerm is the stdlib oracle: the stable ascending permutation.
func refPerm(keys []K) []int32 {
	p := make([]int32, len(keys))
	for i := range p {
		p[i] = int32(i)
	}
	sort.SliceStable(p, func(a, b int) bool { return keys[p[a]] < keys[p[b]] })
	return p
}

func checkPerm(t *testing.T, name string, keys []K) {
	t.Helper()
	want := refPerm(keys)
	var s Sorter
	got := s.SortPerm(keys, 1)
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: perm[%d] = %d, want %d (keys %x vs %x)",
				name, i, got[i], want[i], keys[got[i]], keys[want[i]])
		}
	}
}

func TestSortPermRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 3, 17, 100, 1000, 5000} {
		keys := make([]K, n)
		for i := range keys {
			keys[i] = K(rng.Uint64())
		}
		checkPerm(t, "random", keys)
	}
}

// TestSortPermAdversarial covers the distributions where an LSD radix sort
// or its pass-skipping logic could go wrong: constant keys (every pass
// skipped), already/reverse sorted, few distinct values (massive tie runs),
// and keys varying in only the lowest or only the highest byte.
func TestSortPermAdversarial(t *testing.T) {
	const n = 3000
	rng := rand.New(rand.NewSource(7))

	keys := make([]K, n)
	checkPerm(t, "all-zero", keys)

	for i := range keys {
		keys[i] = 0xDEADBEEFCAFE
	}
	checkPerm(t, "all-equal", keys)

	for i := range keys {
		keys[i] = K(i)
	}
	checkPerm(t, "sorted", keys)

	for i := range keys {
		keys[i] = K(n - i)
	}
	checkPerm(t, "reverse", keys)

	for i := range keys {
		keys[i] = K(rng.Intn(4))
	}
	checkPerm(t, "few-distinct", keys)

	for i := range keys {
		keys[i] = K(rng.Intn(256))
	}
	checkPerm(t, "low-byte-only", keys)

	for i := range keys {
		keys[i] = K(rng.Intn(256)) << 56
	}
	checkPerm(t, "high-byte-only", keys)

	for i := range keys {
		keys[i] = ^K(0) - K(rng.Intn(3))
	}
	checkPerm(t, "near-max", keys)
}

// TestSortPermSortedFastPath covers the already-sorted shortcut: sorted
// keys, with and without ties, come back as the identity, and one inversion
// at either end is enough to take the radix path and match the oracle.
func TestSortPermSortedFastPath(t *testing.T) {
	const n = 5000
	identity := func(name string, keys []K) {
		t.Helper()
		var s Sorter
		for i, p := range s.SortPerm(keys, 1) {
			if p != int32(i) {
				t.Fatalf("%s: perm[%d] = %d, want the identity", name, i, p)
			}
		}
		checkPerm(t, name, keys)
	}
	for _, m := range []int{0, 1} {
		identity(fmt.Sprintf("n=%d", m), make([]K, m))
	}
	keys := make([]K, n)
	for i := range keys {
		keys[i] = K(i) << 30
	}
	identity("sorted", keys)
	ties := make([]K, n)
	for i := range ties {
		ties[i] = K(i/7) << 11
	}
	identity("sorted-ties", ties)

	end := append([]K(nil), keys...)
	end[n-1], end[n-2] = end[n-2], end[n-1]
	checkPerm(t, "inversion-at-end", end)
	start := append([]K(nil), ties...)
	start[0] = ties[n-1] + 1
	checkPerm(t, "inversion-at-start", start)
}

func TestSortPermEmpty(t *testing.T) {
	var s Sorter
	if got := s.SortPerm(nil, 1); len(got) != 0 {
		t.Fatalf("empty input: got %v", got)
	}
}

// TestSortPermReuse exercises arena reuse: the same Sorter across inputs of
// shrinking and growing sizes must keep producing the oracle permutation.
func TestSortPermReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s Sorter
	for _, n := range []int{5000, 10, 0, 3000, 3000, 7000} {
		keys := make([]K, n)
		for i := range keys {
			keys[i] = K(rng.Uint64())
		}
		want := refPerm(keys)
		got := s.SortPerm(keys, 1)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("reuse n=%d: perm[%d] = %d, want %d", n, i, got[i], want[i])
			}
		}
	}
}

func BenchmarkSortPerm32k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]K, 32768)
	for i := range keys {
		keys[i] = K(rng.Uint64())
	}
	var s Sorter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SortPerm(keys, 1)
	}
}
