package mp

import (
	"math"
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

// A ping-pong of B bytes costs exactly two NetPIPE one-way times,
// 2*(overhead+latency+rendezvous+B*8/bw): each message pays the sender's
// overhead once, and an idle NIC sends it at once.
func TestVirtualTimePingPong(t *testing.T) {
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
	want := 2 * cl.Net.Prof.TransferTime(bytes)
	if math.Abs(t1-want) > 1e-12*want {
		t.Fatalf("ping-pong virtual time = %v want %v", t1, want)
	}
}

// Point-to-point sends share the sender's NIC as an exchange's do: two
// back-to-back 1 MB sends from rank 0 arrive one wire time apart at the
// profile's peak, while rank 0's clock pays only the two overheads.
func TestSendsStreamThroughOneNIC(t *testing.T) {
	const size = 1 << 20
	cl := testCluster(3)
	clocks := make([]float64, 3)
	Run(cl, 3, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, nil, size)
			r.Send(2, 0, nil, size)
		} else {
			r.Recv(0, 0)
		}
		clocks[r.ID()] = r.Clock()
	})
	p := cl.Net.Prof
	if want := 2 * p.PerMsgOverheadSec; clocks[0] != want {
		t.Errorf("sender's clock %v, want two overheads %v", clocks[0], want)
	}
	if gap, want := clocks[2]-clocks[1], size*8/p.PeakBps; math.Abs(gap-want) > 1e-9*want {
		t.Errorf("second message %v s after the first, want one wire time %v", gap, want)
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

// Bruck's allgather: every rank ends with every payload indexed by its rank,
// in ceil(log2 n) messages a rank, and — with payloads of equal size — each
// rank accounts the bytes of n-1 payloads, as the ring it replaced did.
func TestAllgatherBruck(t *testing.T) {
	const size = 24
	for _, n := range []int{1, 2, 3, 5, 7, 8, 13, 64, 294} {
		st := Run(testCluster(n), n, func(r *Rank) {
			type payload struct{ rank, sq int }
			got := r.AllgatherAny(payload{r.ID(), r.ID() * r.ID()}, size)
			for i, g := range got {
				if p, ok := g.(payload); !ok || p.rank != i || p.sq != i*i {
					t.Errorf("n=%d rank %d: payload %d is %v", n, r.ID(), i, g)
				}
			}
			fl := r.Allgather([]float64{float64(r.ID()), -1})
			for i, f := range fl {
				if len(f) != 2 || f[0] != float64(i) || f[1] != -1 {
					t.Errorf("n=%d rank %d: float payload %d is %v", n, r.ID(), i, f)
				}
			}
		})
		rounds := 0
		for d := 1; d < n; d *= 2 {
			rounds++
		}
		if want := int64(2 * n * rounds); st.Messages != want || st.CollectiveMessages != want {
			t.Errorf("n=%d: %d messages (%d collective), want 2·n·ceil(log2 n) = %d", n, st.Messages, st.CollectiveMessages, want)
		}
		for i, m := range st.Obs.RankMetrics() {
			if want := int64(n-1) * (size + SizeFloats(2)); m.Bytes != want {
				t.Errorf("n=%d: rank %d sent %d bytes, want %d", n, i, m.Bytes, want)
			}
		}
	}
}

// Exchange delivers each chunk to the rank named for it and returns what
// each named source sent, in the order the sources are named: here every
// rank sends to the two ranks above it and hears from the two below.
func TestExchange(t *testing.T) {
	for _, n := range []int{1, 2, 3, 6} {
		st := Run(testCluster(n), n, func(r *Rank) {
			var to, from []int
			var chunks []any
			var bytes []int64
			for k := 1; k <= 2 && k < n; k++ {
				to = append(to, (r.ID()+k)%n)
				chunks = append(chunks, 100*r.ID()+k)
				bytes = append(bytes, int64(8*k))
				from = append(from, (r.ID()-k+n)%n)
			}
			for i, g := range r.Exchange(to, chunks, bytes, from) {
				if want := 100*from[i] + i + 1; g != want {
					t.Errorf("n=%d rank %d: from %d got %v, want %d", n, r.ID(), from[i], g, want)
				}
			}
		})
		links := min(2, n-1)
		if want := int64(n * links); st.CollectiveMessages != want {
			t.Errorf("n=%d: %d collective messages, want %d", n, st.CollectiveMessages, want)
		}
	}
}

// An exchange is charged like the dense all-to-all it replaces: each message
// at the loaded-network rate, and the sender's NIC streams them one after
// another. Rank 0 sends 1 MB to each of seven ranks; the k-th in its list
// has it k-1 wire times after the first.
func TestExchangeStreamsThroughOneNIC(t *testing.T) {
	const n, size = 8, 1 << 20
	clocks := make([]float64, n)
	var wire float64
	Run(testCluster(n), n, func(r *Rank) {
		if r.ID() == 0 {
			wire = size * 8 / r.w.congestedRate()
			var to []int
			var chunks []any
			var bytes []int64
			for d := 1; d < n; d++ {
				to, chunks, bytes = append(to, d), append(chunks, d), append(bytes, size)
			}
			r.Exchange(to, chunks, bytes, nil)
		} else {
			r.Exchange(nil, nil, nil, []int{0})
		}
		clocks[r.ID()] = r.Clock()
	})
	for d := 2; d < n; d++ {
		if gap, want := clocks[d]-clocks[1], float64(d-1)*wire; math.Abs(gap-want) > 1e-9*want {
			t.Errorf("rank %d has its message %v s after rank 1, want %v", d, gap, want)
		}
	}
}
