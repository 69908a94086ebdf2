package mp

import (
	"reflect"
	"testing"

	"spacesim/internal/obs"
)

// TestCollectiveByteAccounting pins the message/byte counts of a small
// broadcast + allreduce so collective traffic stays consistently accounted
// with point-to-point sends (each hop of the logarithmic algorithms is one
// message at its wire size), and holds the three places the fold writes to
// one count: Stats, the per-rank breakdowns and the registry. Stats is one
// run's; the breakdowns and the registry accumulate over every run on one
// Obs.
func TestCollectiveByteAccounting(t *testing.T) {
	const n = 4
	const elems = 16
	const wire = 8 * elems // SizeFloats(16)
	o := obs.New(false)
	work := func(r *Rank) {
		buf := make([]float64, elems)
		for i := range buf {
			buf[i] = float64(i)
		}
		r.Bcast(0, buf)
		r.Allreduce(buf, OpSum)
	}
	st := Run(testCluster(n).WithObs(o), n, work)

	// Binomial-tree bcast: n-1 = 3 messages. Recursive-doubling allreduce
	// at a power-of-two size: log2(4) = 2 rounds, every rank sends once per
	// round = 8 messages. Each carries the full 16-float payload.
	const wantMsgs = (n - 1) + n*2
	const wantBytes = wantMsgs * wire
	if st.Messages != wantMsgs {
		t.Errorf("Messages = %d, want %d", st.Messages, wantMsgs)
	}
	if st.Bytes != wantBytes {
		t.Errorf("Bytes = %d, want %d", st.Bytes, wantBytes)
	}
	// Every message above was generated inside a collective.
	if st.CollectiveMessages != wantMsgs || st.CollectiveBytes != wantBytes {
		t.Errorf("collective breakdown = %d msgs / %d bytes, want %d / %d",
			st.CollectiveMessages, st.CollectiveBytes, wantMsgs, wantBytes)
	}
	for runs := int64(1); runs <= 2; runs++ {
		if runs == 2 {
			again := Run(testCluster(n).WithObs(o), n, work)
			if !reflect.DeepEqual(again, st) {
				t.Errorf("second run on one Obs: %+v, first %+v", again, st)
			}
		}
		// The per-rank accounting must sum to the world totals.
		var rankMsgs, rankBytes int64
		for _, m := range o.RankMetrics() {
			rankMsgs += m.Messages
			rankBytes += m.Bytes
		}
		if rankMsgs != runs*st.Messages || rankBytes != runs*st.Bytes {
			t.Errorf("after %d runs: per-rank sums = %d msgs / %d bytes, want %d / %d",
				runs, rankMsgs, rankBytes, runs*st.Messages, runs*st.Bytes)
		}
		h := o.Reg.HistogramSnapshots()
		for _, c := range []struct {
			name        string
			msgs, bytes int64
		}{
			{"mp.msg.bytes", st.Messages, st.Bytes},
			{"mp.collective.msg_bytes", st.CollectiveMessages, st.CollectiveBytes},
		} {
			if got := h[c.name]; got.Count != runs*c.msgs || got.Sum != float64(runs*c.bytes) {
				t.Errorf("after %d runs: %s count %d sum %v, want %d / %d",
					runs, c.name, got.Count, got.Sum, runs*c.msgs, runs*c.bytes)
			}
		}
	}
}

// TestPointToPointNotCollective checks that plain sends stay out of the
// collective breakdown.
func TestPointToPointNotCollective(t *testing.T) {
	st := Run(testCluster(2), 2, func(r *Rank) {
		if r.ID() == 0 {
			r.SendFloats(1, 1, make([]float64, 4))
		} else {
			r.RecvFloats(0, 1)
		}
		r.Barrier()
	})
	if st.CollectiveMessages != 2 { // dissemination barrier on 2 ranks: 1 send per rank
		t.Errorf("CollectiveMessages = %d, want 2", st.CollectiveMessages)
	}
	if got := st.Messages - st.CollectiveMessages; got != 1 {
		t.Errorf("point-to-point messages = %d, want 1", got)
	}
	if got := st.Bytes - st.CollectiveBytes; got != 32 {
		t.Errorf("point-to-point bytes = %d, want 32", got)
	}
}

// TestRankBreakdownAndTraceDeterminism checks that the per-rank wait/compute
// breakdown is populated, that tracing does not perturb virtual time, and
// that the traced run retains the ranks' messages.
func TestRankBreakdownAndTraceDeterminism(t *testing.T) {
	work := func(r *Rank) {
		r.Charge(1e9, 0.5, 1e6)
		if r.ID() == 0 {
			r.SendFloats(1, 7, make([]float64, 1024))
		} else if r.ID() == 1 {
			r.RecvFloats(0, 7)
		}
		r.Barrier()
	}

	plain := Run(testCluster(4), 4, work)

	o := obs.New(true)
	traced := Run(testCluster(4).WithObs(o), 4, work)

	for i := range plain.RankClocks {
		if plain.RankClocks[i] != traced.RankClocks[i] {
			t.Fatalf("rank %d clock differs with tracing: %v vs %v",
				i, plain.RankClocks[i], traced.RankClocks[i])
		}
	}
	rm := traced.Obs.RankMetrics()
	if len(rm) != 4 {
		t.Fatalf("want 4 rank breakdowns, got %d", len(rm))
	}
	for _, m := range rm {
		if m.ComputeSec <= 0 {
			t.Errorf("rank %d: ComputeSec = %v, want > 0", m.Rank, m.ComputeSec)
		}
		if m.Clock <= 0 {
			t.Errorf("rank %d: Clock = %v, want > 0", m.Rank, m.Clock)
		}
	}
	// Rank 1 waited on rank 0's message (its clock jumped to the arrival).
	if rm[1].WaitSec <= 0 {
		t.Errorf("rank 1: WaitSec = %v, want > 0", rm[1].WaitSec)
	}
	// A traced run retains each rank's timeline: rank 0's send to rank 1,
	// and rank 1's waited receive.
	ev := o.Events.Ranks()
	if len(ev) != 4 {
		t.Fatalf("want 4 retained ranks, got %d", len(ev))
	}
	if s := ev[0].Sends; len(s) == 0 || s[0].Dst != 1 || s[0].Bytes != SizeFloats(1024) {
		t.Errorf("rank 0 sends %+v, want the point-to-point message to rank 1 first", s)
	}
	if r := ev[1].Recvs; len(r) == 0 || r[0].Src != 0 || !r[0].Waited {
		t.Errorf("rank 1 receives %+v, want a waited receive from rank 0 first", r)
	}
}
