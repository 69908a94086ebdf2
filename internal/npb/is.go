package npb

import (
	"math"
	"math/rand"
	"sort"

	"spacesim/internal/machine"
	"spacesim/internal/mp"
)

// runIS executes the integer sort benchmark: bucketed key ranking with the
// NPB communication pattern (alltoall of bucket counts, then alltoall of
// the keys themselves), repeated class.Iters times. The miniature sorts
// 2^actualLog keys; costs are charged at 2^class.N keys. Verification:
// global sortedness across rank boundaries and key conservation.
func runIS(res Result, cluster machine.Cluster, class Class, actualLog int) Result {
	keys := math.Pow(2, float64(class.N))
	den := densities[IS]
	res.Ops = keys * float64(class.Iters) // NPB counts keys ranked

	return run(res, cluster, func(r *mp.Rank) (bool, string) {
		p := r.Size()
		nLocal := int(math.Pow(2, float64(actualLog))) / p
		maxKey := 1 << 16
		rng := rand.New(rand.NewSource(int64(r.ID())*104729 + 5))
		local := make([]float64, nLocal)
		var checksum float64
		for i := range local {
			local[i] = float64(rng.Intn(maxKey))
			checksum += local[i]
		}
		iters := min(class.Iters, 3)
		scale := float64(class.Iters) / float64(iters)
		acctKeysPerRank := keys / float64(p) * scale
		acctChunk := int64(4 * acctKeysPerRank / float64(p)) // 4-byte keys per destination
		var sorted []float64
		for it := 0; it < iters; it++ {
			// bucket by destination rank: key range split evenly
			bins := make([][]float64, p)
			for _, k := range local {
				d := int(k) * p / maxKey
				bins[d] = append(bins[d], k)
			}
			// counts alltoall (the NPB "bucket size" exchange)
			counts := make([][]float64, p)
			for d := range counts {
				counts[d] = []float64{float64(len(bins[d]))}
			}
			r.Alltoall(counts)
			// keys alltoall at accounting size
			chunks := make([]any, p)
			sizes := make([]int64, p)
			for d := range bins {
				chunks[d] = bins[d]
				sizes[d] = acctChunk
			}
			recv := r.AlltoallAny(chunks, sizes)
			sorted = sorted[:0]
			for _, c := range recv {
				if c != nil {
					sorted = append(sorted, c.([]float64)...)
				}
			}
			sort.Float64s(sorted)
			// local ranking cost at accounting size
			r.Charge(acctKeysPerRank*den.flopsPerPt, den.eff, acctKeysPerRank*den.bytesPerPt)
		}

		// verification: local sorted, boundaries ordered, checksum conserved
		ok := sort.Float64sAreSorted(sorted)
		var boundary float64 = -1
		if len(sorted) > 0 {
			boundary = sorted[0]
		}
		// neighbor boundary check: my max <= next rank's min
		maxv := -1.0
		if len(sorted) > 0 {
			maxv = sorted[len(sorted)-1]
		}
		const tag = 81
		if r.ID() < p-1 {
			r.Send(r.ID()+1, tag, maxv, 8)
		}
		if r.ID() > 0 {
			d, _ := r.Recv(r.ID()-1, tag)
			prevMax := d.(float64)
			if boundary >= 0 && prevMax > boundary {
				ok = false
			}
		}
		var sum float64
		for _, k := range sorted {
			sum += k
		}
		tot := r.Allreduce([]float64{sum, checksum, b2f(ok)}, mp.OpSum)
		switch {
		case int(tot[2]) != p:
			return false, "ordering violated"
		case tot[0] != tot[1]:
			return false, "checksum mismatch"
		}
		return true, ""
	})
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
