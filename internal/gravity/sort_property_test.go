package gravity

import (
	"math/rand"
	"sort"
	"testing"
)

// The hand-rolled quicksort must order exactly like the library sort under
// the same comparator. Each case builds a pristine copy,
// sorts an index permutation of the copy with sort.SliceStable, and demands
// the in-place sort reproduce that order row by row (rows with fully equal
// keys are identical, so stability cannot distinguish the two).

// sortCase generates the i-th row of an adversarial input shape.
type sortCase struct {
	name string
	row  func(rng *rand.Rand, i, n int) [4]float64
}

func sortCases() []sortCase {
	return []sortCase{
		{"random", func(rng *rand.Rand, i, n int) [4]float64 {
			return [4]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.Float64() + 0.1}
		}},
		{"all-duplicates", func(rng *rand.Rand, i, n int) [4]float64 {
			return [4]float64{1.5, -2.25, 0.75, 3}
		}},
		{"presorted", func(rng *rand.Rand, i, n int) [4]float64 {
			return [4]float64{float64(i), 0, 0, 1}
		}},
		{"reverse-sorted", func(rng *rand.Rand, i, n int) [4]float64 {
			return [4]float64{float64(n - i), 0, 0, 1}
		}},
		{"equal-x-ties", func(rng *rand.Rand, i, n int) [4]float64 {
			return [4]float64{7, rng.NormFloat64(), rng.NormFloat64(), rng.Float64()}
		}},
		{"last-key-only", func(rng *rand.Rand, i, n int) [4]float64 {
			return [4]float64{7, 8, 9, rng.Float64()}
		}},
		{"few-distinct", func(rng *rand.Rand, i, n int) [4]float64 {
			return [4]float64{float64(rng.Intn(3)), float64(rng.Intn(3)), float64(rng.Intn(3)), float64(rng.Intn(3))}
		}},
		{"sawtooth", func(rng *rand.Rand, i, n int) [4]float64 {
			return [4]float64{float64(i % 5), float64(i % 3), 0, 1}
		}},
	}
}

// sortSizes straddles the insertion-sort threshold (12) and recursion.
func sortSizes() []int { return []int{0, 1, 2, 3, 11, 12, 13, 64, 257, 1000} }

func TestSoASortAgainstLibrary(t *testing.T) {
	for _, c := range sortCases() {
		for _, n := range sortSizes() {
			rng := rand.New(rand.NewSource(int64(n) + 1))
			s := &SoA{}
			for i := 0; i < n; i++ {
				r := c.row(rng, i, n)
				s.Push([3]float64{r[0], r[1], r[2]}, r[3])
			}
			ref := append([]Source(nil), s.rows...)
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			sort.SliceStable(idx, func(a, b int) bool { return lessSources(&ref[idx[a]], &ref[idx[b]]) })
			s.Sort()
			for i := 0; i < n; i++ {
				if s.rows[i] != ref[idx[i]] {
					t.Fatalf("%s n=%d: row %d = %v, library says %v", c.name, n, i, s.rows[i], ref[idx[i]])
				}
			}
		}
	}
}

func TestMultipoleSoASortAgainstLibrary(t *testing.T) {
	for _, c := range sortCases() {
		for _, n := range sortSizes() {
			rng := rand.New(rand.NewSource(int64(n) + 2))
			s := &MultipoleSoA{}
			for i := 0; i < n; i++ {
				r := c.row(rng, i, n)
				var m Multipole
				m.COM[0], m.COM[1], m.COM[2] = r[0], r[1], r[2]
				m.M = r[3]
				// Quadrupole components exercise the deep tie-breakers:
				// random for the random case, constant ties otherwise.
				if c.name == "random" || c.name == "last-key-only" {
					for q := range m.Q {
						m.Q[q] = rng.NormFloat64()
					}
				}
				s.Push(&m)
			}
			ref := append([]Multipole(nil), s.rows...)
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			sort.SliceStable(idx, func(a, b int) bool { return lessMultipoles(&ref[idx[a]], &ref[idx[b]]) })
			s.Sort()
			for i := 0; i < n; i++ {
				if s.At(i) != ref[idx[i]] {
					t.Fatalf("%s n=%d: row %d = %+v, library says %+v", c.name, n, i, s.At(i), ref[idx[i]])
				}
			}
		}
	}
}
