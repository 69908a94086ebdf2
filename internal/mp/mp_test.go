package mp

import (
	"math"
	"sort"
	"testing"

	"spacesim/internal/machine"
	"spacesim/internal/netsim"
)

// testCluster returns a small cluster for correctness tests.
func testCluster(nodes int) machine.Cluster {
	topo := netsim.SpaceSimulatorTopology()
	if nodes > topo.Nodes {
		topo.Nodes = nodes
	}
	return machine.Cluster{
		Name:  "test",
		Nodes: topo.Nodes,
		Node:  machine.SpaceSimulatorNode,
		Net:   netsim.MustNew(topo, netsim.ProfileLAM),
	}
}

var sizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16}

func TestSendRecvBasic(t *testing.T) {
	st := Run(testCluster(2), 2, func(r *Rank) {
		if r.ID() == 0 {
			r.SendFloats(1, 7, []float64{3.5, -1})
		} else {
			xs, status := r.RecvFloats(0, 7)
			if len(xs) != 2 || xs[0] != 3.5 || xs[1] != -1 {
				t.Errorf("payload = %v", xs)
			}
			if status.Source != 0 || status.Tag != 7 || status.Bytes != 16 {
				t.Errorf("status = %+v", status)
			}
		}
	})
	if st.Messages != 1 || st.Bytes != 16 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRecvWildcards(t *testing.T) {
	Run(testCluster(3), 3, func(r *Rank) {
		switch r.ID() {
		case 0, 1:
			r.SendFloats(2, 10+r.ID(), []float64{float64(r.ID())})
		case 2:
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				xs, st := r.RecvFloats(AnySource, AnyTag)
				if int(xs[0]) != st.Source {
					t.Errorf("payload/source mismatch: %v from %d", xs, st.Source)
				}
				seen[st.Source] = true
			}
			if !seen[0] || !seen[1] {
				t.Error("missing sources")
			}
		}
	})
}

func TestVirtualTimePingPong(t *testing.T) {
	// A ping-pong of B bytes should cost ~2*(overhead+latency+B*8/bw)
	// of virtual time, far more than any real wall time here.
	const bytes = 1 << 20
	cl := testCluster(2)
	var t1 float64
	Run(cl, 2, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, nil, bytes)
			r.Recv(1, 1)
			t1 = r.Clock()
		} else {
			r.Recv(0, 0)
			r.Send(0, 1, nil, bytes)
		}
	})
	p := cl.Net.Prof
	want := 2 * p.TransferTime(bytes)
	if math.Abs(t1-want)/want > 0.05 {
		t.Fatalf("ping-pong virtual time = %v want ~%v", t1, want)
	}
}

func TestChargeAdvancesClock(t *testing.T) {
	cl := testCluster(1)
	Run(cl, 1, func(r *Rank) {
		r.Charge(5.06e9, 1.0, 0) // exactly one second of peak compute
		if math.Abs(r.Clock()-1.0) > 1e-9 {
			t.Errorf("clock = %v", r.Clock())
		}
		r.Charge(0, 1.0, 1238.2e6) // one second of stream
		if math.Abs(r.Clock()-2.0) > 1e-9 {
			t.Errorf("clock = %v", r.Clock())
		}
		r.ChargeDisk(28e6) // one second of disk
		if math.Abs(r.Clock()-3.0) > 1e-9 {
			t.Errorf("clock = %v", r.Clock())
		}
		if r.FlopsCharged() != 5.06e9 {
			t.Errorf("flops = %v", r.FlopsCharged())
		}
	})
}

func TestBarrierCausality(t *testing.T) {
	// Rank 0 does a big compute before the barrier; everyone's post-barrier
	// clock must be at least rank 0's pre-barrier clock.
	var slow float64
	st := Run(testCluster(8), 8, func(r *Rank) {
		if r.ID() == 0 {
			r.Charge(5.06e9, 1.0, 0)
			slow = r.Clock()
		}
		r.Barrier()
		if r.Clock() < 1.0 {
			t.Errorf("rank %d exited barrier at %v, before slow rank reached it", r.ID(), r.Clock())
		}
	})
	if st.ElapsedVirtual < slow {
		t.Fatalf("elapsed %v < slow rank %v", st.ElapsedVirtual, slow)
	}
}

func TestBcastAllSizes(t *testing.T) {
	for _, n := range sizes {
		for root := 0; root < n; root += max(1, n/2) {
			Run(testCluster(n), n, func(r *Rank) {
				var buf []float64
				if r.ID() == root {
					buf = []float64{42, float64(root)}
				}
				got := r.Bcast(root, buf)
				if len(got) != 2 || got[0] != 42 || got[1] != float64(root) {
					t.Errorf("n=%d root=%d rank=%d got %v", n, root, r.ID(), got)
				}
			})
		}
	}
}

func TestReduceAllSizes(t *testing.T) {
	for _, n := range sizes {
		root := n / 2
		Run(testCluster(n), n, func(r *Rank) {
			buf := []float64{float64(r.ID()), 1}
			got := r.Reduce(root, buf, OpSum)
			if r.ID() == root {
				wantSum := float64(n*(n-1)) / 2
				if got[0] != wantSum || got[1] != float64(n) {
					t.Errorf("n=%d reduce got %v", n, got)
				}
			} else if got != nil {
				t.Errorf("non-root got %v", got)
			}
		})
	}
}

func TestAllreduceAllSizes(t *testing.T) {
	for _, n := range sizes {
		Run(testCluster(n), n, func(r *Rank) {
			got := r.Allreduce([]float64{float64(r.ID()), -float64(r.ID())}, OpSum)
			wantSum := float64(n*(n-1)) / 2
			if got[0] != wantSum || got[1] != -wantSum {
				t.Errorf("n=%d rank=%d allreduce got %v want %v", n, r.ID(), got, wantSum)
			}
			mx := r.AllreduceScalar(float64(r.ID()), OpMax)
			if mx != float64(n-1) {
				t.Errorf("allreduce max = %v", mx)
			}
			mn := r.AllreduceScalar(float64(r.ID()), OpMin)
			if mn != 0 {
				t.Errorf("allreduce min = %v", mn)
			}
			// A NaN on one rank is a NaN on all: core's world box relies on it.
			v := float64(r.ID())
			if r.ID() == n-1 {
				v = math.NaN()
			}
			if mn, mx := r.AllreduceScalar(v, OpMin), r.AllreduceScalar(v, OpMax); !math.IsNaN(mn) || !math.IsNaN(mx) {
				t.Errorf("n=%d rank=%d: min %v, max %v with a NaN on rank %d", n, r.ID(), mn, mx, n-1)
			}
			if s := r.AllreduceInt(2); s != 2*n {
				t.Errorf("allreduce int = %d", s)
			}
		})
	}
}

func TestGatherAllgather(t *testing.T) {
	for _, n := range sizes {
		Run(testCluster(n), n, func(r *Rank) {
			chunk := []float64{float64(r.ID() * 10)}
			g := r.Gather(0, chunk)
			if r.ID() == 0 {
				for i := 0; i < n; i++ {
					if g[i][0] != float64(i*10) {
						t.Errorf("gather[%d] = %v", i, g[i])
					}
				}
			} else if g != nil {
				t.Error("non-root gather must be nil")
			}
			ag := r.Allgather(chunk)
			for i := 0; i < n; i++ {
				if ag[i][0] != float64(i*10) {
					t.Errorf("allgather[%d] = %v at rank %d", i, ag[i], r.ID())
				}
			}
		})
	}
}

func TestAlltoallAllSizes(t *testing.T) {
	for _, n := range sizes {
		Run(testCluster(n), n, func(r *Rank) {
			chunks := make([][]float64, n)
			for d := range chunks {
				chunks[d] = []float64{float64(r.ID()*1000 + d)}
			}
			got := r.Alltoall(chunks)
			for s := 0; s < n; s++ {
				want := float64(s*1000 + r.ID())
				if len(got[s]) != 1 || got[s][0] != want {
					t.Errorf("n=%d rank=%d from=%d got %v want %v", n, r.ID(), s, got[s], want)
				}
			}
		})
	}
}

func TestExScan(t *testing.T) {
	for _, n := range sizes {
		Run(testCluster(n), n, func(r *Rank) {
			got := r.ExScan(float64(r.ID()+1), OpSum)
			want := 0.0
			for i := 0; i < r.ID(); i++ {
				want += float64(i + 1)
			}
			if got != want {
				t.Errorf("n=%d rank=%d exscan got %v want %v", n, r.ID(), got, want)
			}
		})
	}
}

func TestRunPanicsOnOversubscribe(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(testCluster(2), 500, func(r *Rank) {})
}

// Alltoall across many ranks must be charged congested (slower per byte)
// relative to a single uncontended stream.
func TestAlltoallCongestionCharged(t *testing.T) {
	cl := testCluster(64)
	const chunk = 1 << 16
	var alltoallTime float64
	Run(cl, 64, func(r *Rank) {
		chunks := make([][]float64, 64)
		for d := range chunks {
			chunks[d] = make([]float64, chunk/8)
		}
		r.Alltoall(chunks)
		if r.ID() == 0 {
			alltoallTime = r.Clock()
		}
	})
	// 63 uncontended sequential sends would take:
	uncontended := 63 * cl.Net.Prof.TransferTime(chunk)
	if alltoallTime <= uncontended {
		t.Fatalf("alltoall %v should exceed uncontended serial %v (congestion)", alltoallTime, uncontended)
	}
}

func TestDeterministicRng(t *testing.T) {
	vals := make([]float64, 4)
	Run(testCluster(4), 4, func(r *Rank) { vals[r.ID()] = r.Rng().Float64() })
	again := make([]float64, 4)
	Run(testCluster(4), 4, func(r *Rank) { again[r.ID()] = r.Rng().Float64() })
	for i := range vals {
		if vals[i] != again[i] {
			t.Fatal("rank RNG must be deterministic")
		}
	}
	sort.Float64s(vals)
	for i := 1; i < len(vals); i++ {
		if vals[i] == vals[i-1] {
			t.Fatal("ranks must have distinct streams")
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
