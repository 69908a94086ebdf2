package hpl

import (
	"fmt"
	"math"

	"spacesim/internal/machine"
	"spacesim/internal/mp"
	"spacesim/internal/netsim"
	"spacesim/internal/obs"
)

// dgemmEff is the fraction of node peak a tuned BLAS-3 update sustains
// (Table 2: single-node Linpack 3.302 of 5.06 Gflop/s peak with ATLAS).
const dgemmEff = 0.6526

// ParallelResult reports one distributed factorization.
type ParallelResult struct {
	N, NB, Procs   int
	Residual       float64
	ElapsedVirtual float64
	Gflops         float64
}

// RunParallel factors and solves an n x n HPL system on nprocs ranks of the
// cluster with block size nb, using 1-D block-cyclic column distribution:
// the panel owner factors its columns with partial pivoting, broadcasts the
// panel and pivots, and all ranks swap rows and apply the rank-nb update to
// their trailing columns. The solve and residual run on rank 0 after a
// gather (the benchmark's timed region is the factorization, as in HPL).
func RunParallel(cluster machine.Cluster, nprocs, n, nb int, seed int64) (ParallelResult, error) {
	if n%nb != 0 {
		return ParallelResult{}, fmt.Errorf("hpl: n=%d must be a multiple of nb=%d", n, nb)
	}
	res := ParallelResult{N: n, NB: nb, Procs: nprocs}
	var resid float64
	st := mp.Run(cluster, nprocs, func(r *mp.Rank) {
		p := r.Size()
		me := r.ID()
		// local storage: columns this rank owns, in global order
		myCols := colsOf(n, nb, p, me)
		// cols[l][i] = A[i, myCols[l]]
		full, bvec := NewRandom(n, seed)
		cols := make([][]float64, len(myCols))
		for l, j := range myCols {
			cols[l] = make([]float64, n)
			for i := 0; i < n; i++ {
				cols[l][i] = full.At(i, j)
			}
		}
		lidx := map[int]int{}
		for l, j := range myCols {
			lidx[j] = l
		}

		nPanels := n / nb
		// Rank 0 publishes per-panel progress (nil handle on other ranks).
		var prog *obs.Progress
		if me == 0 {
			prog = r.WorldObs().Progress()
			prog.SetTotal(nPanels)
			prog.State("running")
			prog.Phase("factor")
		}
		allPivots := make([]int, n)
		for pk := 0; pk < nPanels; pk++ {
			k0 := pk * nb
			k1 := k0 + nb
			ow := pk % p // block-cyclic owner of panel pk
			// panel payload: nb pivot indices + nb factored columns (rows k0..n)
			var panel []float64
			if ow == me {
				endFactor := r.Span("hpl", "panel-factor")
				// factor panel columns locally
				for j := k0; j < k1; j++ {
					lj := lidx[j]
					col := cols[lj]
					// pivot search below the diagonal
					piv, maxv := j, math.Abs(col[j])
					for i := j + 1; i < n; i++ {
						if v := math.Abs(col[i]); v > maxv {
							piv, maxv = i, v
						}
					}
					allPivots[j] = piv
					if piv != j {
						// swap rows j,piv in all panel columns (others later)
						for jj := k0; jj < k1; jj++ {
							c := cols[lidx[jj]]
							c[j], c[piv] = c[piv], c[j]
						}
					}
					inv := 1 / col[j]
					for i := j + 1; i < n; i++ {
						col[i] *= inv
					}
					// update remaining panel columns
					for jj := j + 1; jj < k1; jj++ {
						c := cols[lidx[jj]]
						f := c[j]
						for i := j + 1; i < n; i++ {
							c[i] -= col[i] * f
						}
					}
				}
				rows := n - k0
				r.Charge(float64(rows*nb*nb), dgemmEff*0.6, float64(8*rows*nb))
				// serialize panel: pivots then columns rows k0..n
				panel = make([]float64, nb+nb*(n-k0))
				for j := k0; j < k1; j++ {
					panel[j-k0] = float64(allPivots[j])
				}
				off := nb
				for j := k0; j < k1; j++ {
					copy(panel[off:off+(n-k0)], cols[lidx[j]][k0:])
					off += n - k0
				}
				endFactor()
			}
			endBcast := r.Span("hpl", "panel-bcast")
			panel = r.Bcast(ow, panel)
			endBcast()
			endUpdate := r.Span("hpl", "update")
			if ow != me {
				for j := k0; j < k1; j++ {
					allPivots[j] = int(panel[j-k0])
				}
			}
			// apply row swaps to non-panel local columns
			for _, j := range myCols {
				if j >= k0 && j < k1 {
					continue
				}
				c := cols[lidx[j]]
				for jj := k0; jj < k1; jj++ {
					if piv := allPivots[jj]; piv != jj {
						c[jj], c[piv] = c[piv], c[jj]
					}
				}
			}
			// trailing update on local columns right of the panel
			rows := n - k1
			updated := 0
			for _, j := range myCols {
				if j < k1 {
					continue
				}
				c := cols[lidx[j]]
				for jj := k0; jj < k1; jj++ {
					// L column jj stored in panel rows (k0..n)
					lcol := panel[nb+(jj-k0)*(n-k0):]
					f := c[jj]
					for i := jj + 1; i < n; i++ {
						c[i] -= lcol[i-k0] * f
					}
				}
				updated++
			}
			if rows > 0 && updated > 0 {
				flops := 2 * float64(updated) * float64(nb) * float64(rows)
				r.Charge(flops, dgemmEff, float64(8*updated*rows))
			}
			endUpdate()
			prog.StepDone(pk+1, r.Clock())
		}

		// gather factored columns onto rank 0 and verify there
		prog.Phase("verify")
		gathered := r.Gather(0, flatten(cols))
		if me == 0 {
			lu := &Matrix{N: n, A: make([]float64, n*n)}
			for src := 0; src < p; src++ {
				flat := gathered[src]
				gcols := colsOf(n, nb, p, src)
				for l, j := range gcols {
					for i := 0; i < n; i++ {
						lu.Set(i, j, flat[l*n+i])
					}
				}
			}
			x := lu.Solve(allPivots, bvec)
			fresh, _ := NewRandom(n, seed)
			resid = Residual(fresh, x, bvec)
		}
		prog.State("done")
	})
	res.Residual = resid
	res.ElapsedVirtual = st.ElapsedVirtual
	if st.ElapsedVirtual > 0 {
		res.Gflops = Flops(n) / st.ElapsedVirtual / 1e9
	}
	return res, nil
}

// colsOf lists, in order, the columns rank owns under the 1-D
// block-cyclic distribution of nb-wide blocks over p ranks.
func colsOf(n, nb, p, rank int) []int {
	var out []int
	for j := 0; j < n; j++ {
		if (j/nb)%p == rank {
			out = append(out, j)
		}
	}
	return out
}

func flatten(cols [][]float64) []float64 {
	if len(cols) == 0 {
		return nil
	}
	out := make([]float64, 0, len(cols)*len(cols[0]))
	for _, c := range cols {
		out = append(out, c...)
	}
	return out
}

// ModelConfig describes one full-machine Linpack configuration of Figure 3.
type ModelConfig struct {
	Name string
	// NodeLinpackGflops is the measured single-node rate (Table 2: 3.302
	// with ATLAS 3.4; the April 2003 run used a slightly faster ATLAS).
	NodeLinpackGflops float64
	// Profile is the MPI library (MPICH for the October run, LAM for April).
	Profile netsim.Profile
	// OverlapAlpha is the fraction of broadcast time NOT hidden behind the
	// trailing update (HPL lookahead overlaps most of it).
	OverlapAlpha float64
	Procs        int
	N, NB        int
}

// October2002 is the 665.1 Gflop/s configuration (MPICH + ATLAS 3.4).
func October2002() ModelConfig {
	return ModelConfig{
		Name:              "October 2002 (MPICH, gcc/ATLAS)",
		NodeLinpackGflops: 3.302,
		Profile:           netsim.ProfileMPICH1,
		OverlapAlpha:      0.4,
		Procs:             288,
		N:                 160000,
		NB:                128,
	}
}

// April2003 is the 757.1 Gflop/s configuration (LAM + newer ATLAS + icc).
func April2003() ModelConfig {
	return ModelConfig{
		Name:              "April 2003 (LAM, icc/ATLAS 3.5)",
		NodeLinpackGflops: 3.45,
		Profile:           netsim.ProfileLAMO,
		OverlapAlpha:      0.4,
		Procs:             288,
		N:                 160000,
		NB:                128,
	}
}

// ModelGflops evaluates the analytic HPL model: compute time at the
// single-node Linpack rate plus the non-overlapped fraction of pipelined
// panel broadcasts.
func ModelGflops(cfg ModelConfig) float64 {
	flops := Flops(cfg.N)
	tComp := flops / (float64(cfg.Procs) * cfg.NodeLinpackGflops * 1e9)
	nPanels := cfg.N / cfg.NB
	// Average panel payload: half the column height times nb doubles; a
	// pipelined ring broadcast costs ~2 transfer times regardless of P.
	avgBytes := int64(cfg.N / 2 * cfg.NB * 8)
	tBcast := 2 * cfg.Profile.TransferTime(avgBytes)
	tComm := cfg.OverlapAlpha * float64(nPanels) * tBcast
	return flops / (tComp + tComm) / 1e9
}
