package mp

import (
	"math/rand"
	"testing"
)

const hEcho = 1

func TestABMLocalRequest(t *testing.T) {
	Run(testCluster(1), 1, func(r *Rank) {
		a := NewABM(r)
		a.Handle(hEcho, func(src int, req any) (any, int64) {
			return req.(int) * 2, 8
		})
		got := -1
		a.Request(0, hEcho, 21, 8, func(resp any) { got = resp.(int) })
		if got != 42 {
			t.Errorf("local request got %d", got)
		}
		a.Quiesce()
	})
}

func TestABMRemoteRequestResponse(t *testing.T) {
	Run(testCluster(4), 4, func(r *Rank) {
		a := NewABM(r)
		a.Handle(hEcho, func(src int, req any) (any, int64) {
			return req.(int) + 1000*r.ID(), 8
		})
		results := map[int]int{}
		for dst := 0; dst < 4; dst++ {
			d := dst
			a.Request(d, hEcho, r.ID(), 8, func(resp any) { results[d] = resp.(int) })
		}
		a.Quiesce()
		for dst := 0; dst < 4; dst++ {
			want := r.ID() + 1000*dst
			if results[dst] != want {
				t.Errorf("rank %d <- %d: got %d want %d", r.ID(), dst, results[dst], want)
			}
		}
	})
}

// Batching: many small requests to the same destination must travel in far
// fewer messages than requests.
func TestABMBatching(t *testing.T) {
	const nreq = 256
	st := Run(testCluster(2), 2, func(r *Rank) {
		a := NewABM(r)
		a.Handle(hEcho, func(src int, req any) (any, int64) { return req, 8 })
		if r.ID() == 0 {
			got := 0
			for i := 0; i < nreq; i++ {
				a.Request(1, hEcho, i, 8, func(resp any) { got++ })
			}
			a.Quiesce()
			if got != nreq {
				t.Errorf("responses = %d", got)
			}
		} else {
			a.Quiesce()
		}
	})
	// 256 requests with maxBatchItems=32 -> 8 request messages + 8 response
	// messages + quiescence control traffic. Far below 512.
	if st.Messages > 100 {
		t.Fatalf("messages = %d, batching not effective", st.Messages)
	}
}

// Random cross-traffic: every rank requests from random other ranks;
// quiescence must terminate with all continuations delivered.
func TestABMQuiesceRandomTraffic(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 13} {
		delivered := make([]int, n)
		wanted := make([]int, n)
		Run(testCluster(n), n, func(r *Rank) {
			a := NewABM(r)
			a.Handle(hEcho, func(src int, req any) (any, int64) { return req, 8 })
			rng := rand.New(rand.NewSource(int64(r.ID())*2654435761 + 1))
			nreq := 50 + rng.Intn(100)
			wanted[r.ID()] = nreq
			count := 0
			for i := 0; i < nreq; i++ {
				dst := rng.Intn(n)
				a.Request(dst, hEcho, i, 8, func(resp any) { count++ })
				if i%17 == 0 {
					a.Poll() // interleave serving
				}
			}
			a.Quiesce()
			delivered[r.ID()] = count
		})
		for i := range wanted {
			if delivered[i] != wanted[i] {
				t.Fatalf("n=%d rank %d delivered %d of %d", n, i, delivered[i], wanted[i])
			}
		}
	}
}

// The latency-hiding effect: a rank that interleaves compute with
// outstanding requests should finish in less virtual time than one that
// stalls for each response round-trip.
func TestABMLatencyHiding(t *testing.T) {
	cl := testCluster(2)
	const nreq = 64
	const flopsPerItem = 1e5 // ~40us of compute, well below the ~190us RTT

	runPipelined := func() float64 {
		var clock float64
		Run(cl, 2, func(r *Rank) {
			a := NewABM(r)
			a.Handle(hEcho, func(src int, req any) (any, int64) { return req, 1024 })
			if r.ID() == 0 {
				a.maxBatchItems = 8
				for i := 0; i < nreq; i++ {
					a.Request(1, hEcho, i, 1024, func(resp any) {})
					r.Charge(flopsPerItem, 0.5, 0) // overlap compute
					a.Poll()
				}
				a.Quiesce()
				clock = r.Clock()
			} else {
				a.Quiesce()
			}
		})
		return clock
	}
	runStalled := func() float64 {
		var clock float64
		Run(cl, 2, func(r *Rank) {
			a := NewABM(r)
			a.Handle(hEcho, func(src int, req any) (any, int64) { return req, 1024 })
			if r.ID() == 0 {
				a.maxBatchItems = 1 // no batching
				for i := 0; i < nreq; i++ {
					done := false
					a.Request(1, hEcho, i, 1024, func(resp any) { done = true })
					a.FlushAll()
					for !done {
						if a.Poll() == 0 {
							r.Yield()
						}
					}
					r.Charge(flopsPerItem, 0.5, 0)
				}
				a.Quiesce()
				clock = r.Clock()
			} else {
				a.Quiesce()
			}
		})
		return clock
	}
	p, s := runPipelined(), runStalled()
	if p >= s {
		t.Fatalf("pipelined %v must beat stalled %v", p, s)
	}
	// Stalled pays ~nreq round-trip latencies; pipelined amortizes them.
	if s/p < 2 {
		t.Fatalf("latency hiding speedup only %.2fx", s/p)
	}
}

func TestABMUnregisteredHandlerPanics(t *testing.T) {
	Run(testCluster(1), 1, func(r *Rank) {
		a := NewABM(r)
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		a.Request(0, 99, nil, 0, func(any) {})
	})
}

func TestABMOutstandingCount(t *testing.T) {
	Run(testCluster(2), 2, func(r *Rank) {
		a := NewABM(r)
		a.Handle(hEcho, func(src int, req any) (any, int64) { return req, 0 })
		if r.ID() == 0 {
			a.Request(1, hEcho, 1, 8, func(any) {})
			if a.Outstanding() != 1 {
				t.Errorf("outstanding = %d", a.Outstanding())
			}
		}
		a.Quiesce()
		if a.Outstanding() != 0 {
			t.Errorf("post-quiesce outstanding = %d", a.Outstanding())
		}
	})
}
