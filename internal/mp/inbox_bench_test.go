package mp

import (
	"fmt"
	"testing"
)

// The pre-ring inbox deleted matches with append(q[:i], q[i+1:]...): O(n)
// per take even when the match is at the front — the overwhelmingly common
// case, and the only case under AnySource fan-in, where a gather root with
// thousands of queued messages paid O(n²) to drain them. The ring takes the
// front in O(1). shiftTake below reproduces the old behavior as a reference
// so the benchmark measures the delta on the same workload.

func shiftTake(q []message, src, tag int) ([]message, bool) {
	for i := range q {
		if matchMsg(&q[i], src, tag) {
			return append(q[:i], q[i+1:]...), true
		}
	}
	return q, false
}

func benchMessages(n int) []message {
	msgs := make([]message, n)
	for i := range msgs {
		msgs[i] = message{src: i % 64, tag: 7, arrive: float64(i)}
	}
	return msgs
}

// BenchmarkInboxDrain measures a fan-in drain: pending messages deep, the
// receiver consumes them oldest-first with a wildcard match (the Gather /
// ABM poll pattern).
func BenchmarkInboxDrain(b *testing.B) {
	for _, pending := range []int{64, 1024, 16384} {
		msgs := benchMessages(pending)

		b.Run(fmt.Sprintf("ring/pending=%d", pending), func(b *testing.B) {
			ib := &inbox{}
			b.ReportAllocs()
			for b.Loop() {
				b.StopTimer()
				ib.q = append(ib.q[:0], msgs...)
				ib.head = 0
				b.StartTimer()
				for ib.pending() > 0 {
					if _, ok := ib.tryTake(AnySource, 7); !ok {
						b.Fatal("lost a message")
					}
				}
			}
		})

		b.Run(fmt.Sprintf("shift/pending=%d", pending), func(b *testing.B) {
			var q []message
			b.ReportAllocs()
			for b.Loop() {
				b.StopTimer()
				q = append(q[:0], msgs...)
				b.StartTimer()
				for len(q) > 0 {
					var ok bool
					if q, ok = shiftTake(q, AnySource, 7); !ok {
						b.Fatal("lost a message")
					}
				}
			}
		})
	}
}

// BenchmarkInboxSelective measures the middle-delete path: a receiver picks
// one specific source out of a deep wildcard backlog (the selective-receive
// worst case the compaction heuristic bounds).
func BenchmarkInboxSelective(b *testing.B) {
	const pending = 4096
	msgs := benchMessages(pending)
	b.Run("ring", func(b *testing.B) {
		ib := &inbox{}
		b.ReportAllocs()
		for b.Loop() {
			b.StopTimer()
			ib.q = append(ib.q[:0], msgs...)
			ib.head = 0
			b.StartTimer()
			for src := 0; src < 64; src++ {
				for {
					if _, ok := ib.tryTake(src, 7); !ok {
						break
					}
				}
			}
		}
	})
	b.Run("shift", func(b *testing.B) {
		var q []message
		b.ReportAllocs()
		for b.Loop() {
			b.StopTimer()
			q = append(q[:0], msgs...)
			b.StartTimer()
			for src := 0; src < 64; src++ {
				for {
					var ok bool
					if q, ok = shiftTake(q, src, 7); !ok {
						break
					}
				}
			}
		}
	})
}

// TestInboxRing pins the ring's matching semantics: queue order for every
// receive, compaction keeps the live window intact.
func TestInboxRing(t *testing.T) {
	ib := &inbox{}
	for i := 0; i < 300; i++ {
		ib.enqueue(message{src: i % 3, tag: i % 2, arrive: float64(300 - i)})
	}
	// Drain front matches so head crosses the compaction threshold.
	for i := 0; i < 250; i++ {
		if _, ok := ib.tryTake(AnySource, AnyTag); !ok {
			t.Fatalf("take %d failed", i)
		}
	}
	if got := ib.pending(); got != 50 {
		t.Fatalf("pending = %d, want 50", got)
	}
	// The scan picks the oldest live message, not the earliest arrival
	// (arrivals descend, so that is the last enqueued).
	first := ib.scanMatch(AnySource, AnyTag)
	if first < 0 || ib.q[first].arrive != 50 {
		t.Fatalf("queue-order scan got arrive=%v", ib.q[first].arrive)
	}
	// Selective middle deletes preserve relative order of the rest.
	for {
		if _, ok := ib.tryTake(1, AnyTag); !ok {
			break
		}
	}
	last := -1.0
	for {
		m, ok := ib.tryTake(AnySource, AnyTag)
		if !ok {
			break
		}
		if m.src == 1 {
			t.Fatal("src-1 message survived selective drain")
		}
		if last >= 0 && m.arrive >= last {
			t.Fatalf("queue order violated: %v after %v", m.arrive, last)
		}
		last = m.arrive
	}
	if ib.pending() != 0 {
		t.Fatalf("pending = %d after full drain", ib.pending())
	}
}
