package core

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"spacesim/internal/obs"
	"spacesim/internal/obs/live"
)

// TestLiveReadersBitIdentical is the live-telemetry determinism guard:
// while the run executes, a goroutine reads /progress.json and /metrics
// through live.Handler in a loop, and the run must produce bit-identical
// state — bodies, every rank's virtual clock and the makespan — to the
// unobserved run, at both Workers=1 and Workers=4, on one rank and on eight:
// reading the registry and the progress marks from a host goroutine must
// never perturb virtual time or evaluation order.
func TestLiveReadersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ics := PlummerSphere(rng, 600, 1.0)

	run := func(procs, workers int, served bool) Result {
		o := obs.New(false)
		cl := testCluster().WithObs(o)
		var reads int
		stop, done := make(chan struct{}), make(chan struct{})
		if served {
			srv := httptest.NewServer(live.Handler(func() *obs.Obs { return o }, nil))
			defer srv.Close()
			go func() {
				defer close(done)
				for {
					for _, path := range []string{"/progress.json", "/metrics"} {
						resp, err := http.Get(srv.URL + path)
						if err != nil {
							t.Errorf("GET %s: %v", path, err)
							return
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							t.Errorf("GET %s: status %d", path, resp.StatusCode)
							return
						}
						reads++
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		res := Run(RunConfig{
			Cluster: cl, Procs: procs, Steps: 2,
			Opt:          Options{Theta: 0.6, Eps: 0.02, DT: 0.005, Workers: workers},
			GatherBodies: true,
		}, ics)
		if served {
			close(stop)
			<-done
			if reads == 0 {
				t.Fatalf("procs=%d workers=%d: no live reads completed", procs, workers)
			}
			p := o.Progress().Snapshot()
			if p.State != "done" || p.StepFraction != 1 {
				t.Fatalf("procs=%d workers=%d: final progress state %q fraction %v, want done and 1",
					procs, workers, p.State, p.StepFraction)
			}
		}
		return res
	}

	for _, procs := range []int{1, 8} {
		ref := run(procs, 1, false)
		if len(ref.Bodies) != 600 {
			t.Fatalf("procs=%d: gathered %d bodies, want 600", procs, len(ref.Bodies))
		}
		for _, workers := range []int{1, 4} {
			got := run(procs, workers, true)
			for i := range ref.Bodies {
				if got.Bodies[i].Pos != ref.Bodies[i].Pos || got.Bodies[i].Vel != ref.Bodies[i].Vel {
					t.Fatalf("procs=%d workers=%d served: body %d differs: %+v vs %+v",
						procs, workers, i, got.Bodies[i], ref.Bodies[i])
				}
			}
			if !slices.Equal(got.Comm.RankClocks, ref.Comm.RankClocks) || got.Comm.ElapsedVirtual != ref.Comm.ElapsedVirtual {
				t.Fatalf("procs=%d workers=%d served: rank clocks %v, makespan %v; want %v, %v",
					procs, workers, got.Comm.RankClocks, got.Comm.ElapsedVirtual, ref.Comm.RankClocks, ref.Comm.ElapsedVirtual)
			}
		}
	}
}
