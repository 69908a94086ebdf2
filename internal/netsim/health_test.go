package netsim

import (
	"math"
	"testing"
)

func testNet(t *testing.T) *Network {
	t.Helper()
	n, err := New(SpaceSimulatorTopology(), ProfileLAM)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestHealthNilIsHealthy(t *testing.T) {
	var h *Health
	if f := h.CapFactor(LinkNICTx, 3, 1.0); f != 1 {
		t.Fatalf("nil health cap factor = %g, want 1", f)
	}
	if l := h.PortLatency(3, 1.0); l != 0 {
		t.Fatalf("nil health port latency = %g, want 0", l)
	}
	if !h.Empty() {
		t.Fatal("nil health should be Empty")
	}
}

func TestTransferTimeAtMatchesHealthyBaseline(t *testing.T) {
	n := testNet(t)
	for _, bytes := range []int64{64, 8 << 10, 1 << 20} {
		base := n.TransferTime(0, 20, bytes)
		if got := n.TransferTimeAt(0, 20, bytes, 5.0); got != base {
			t.Fatalf("no health: TransferTimeAt = %g, TransferTime = %g", got, base)
		}
	}
	// Attached-but-empty health must also match exactly.
	n2 := n.WithHealth(NewHealth())
	if got, want := n2.TransferTimeAt(0, 20, 1<<20, 5.0), n.TransferTime(0, 20, 1<<20); got != want {
		t.Fatalf("empty health: TransferTimeAt = %g, want %g", got, want)
	}
}

func TestDegradedNICSlowsTransfersOnlyInWindow(t *testing.T) {
	n := testNet(t)
	h := NewHealth()
	h.DegradeNIC(0, 10, 20, 0.25)
	n = n.WithHealth(h)

	bytes := int64(1 << 20)
	base := n.Prof.TransferTime(bytes)
	before := n.TransferTimeAt(0, 20, bytes, 5)
	during := n.TransferTimeAt(0, 20, bytes, 15)
	after := n.TransferTimeAt(0, 20, bytes, 20) // end is exclusive

	if before != base || after != base {
		t.Fatalf("outside window: got %g / %g, want baseline %g", before, after, base)
	}
	if during <= base {
		t.Fatalf("inside window: %g not slower than baseline %g", during, base)
	}
	// Payload term scales by exactly 1/0.25; latency terms are unchanged.
	wantPayload := float64(bytes) * 8 / (n.Prof.PeakBps * 0.25)
	gotPayload := during - (base - float64(bytes)*8/n.Prof.PeakBps)
	if math.Abs(gotPayload-wantPayload) > 1e-12*wantPayload {
		t.Fatalf("degraded payload time %g, want %g", gotPayload, wantPayload)
	}
	// The degraded receiver NIC slows inbound transfers too.
	if in := n.TransferTimeAt(20, 0, bytes, 15); in != during {
		t.Fatalf("rx degradation %g != tx degradation %g", in, during)
	}
}

func TestFlapAddsLatencyNotBandwidth(t *testing.T) {
	n := testNet(t)
	h := NewHealth()
	h.FlapPort(7, 0, 100, 2e-3)
	n = n.WithHealth(h)

	bytes := int64(4096)
	base := n.Prof.TransferTime(bytes)
	got := n.TransferTimeAt(7, 40, bytes, 50)
	if d := got - base; math.Abs(d-2e-3) > 1e-12 {
		t.Fatalf("flap delta = %g, want 2e-3", d)
	}
	// Either endpoint's flap applies.
	if got2 := n.TransferTimeAt(40, 7, bytes, 50); got2 != got {
		t.Fatalf("flap on dst %g != flap on src %g", got2, got)
	}
}

func TestOverlappingDegradationsCompound(t *testing.T) {
	h := NewHealth()
	h.DegradeLink(LinkNICTx, 1, 0, 10, 0.5)
	h.DegradeLink(LinkNICTx, 1, 5, 15, 0.5)
	if f := h.CapFactor(LinkNICTx, 1, 7); f != 0.25 {
		t.Fatalf("compound factor %g, want 0.25", f)
	}
	if f := h.CapFactor(LinkNICTx, 1, 12); f != 0.5 {
		t.Fatalf("single factor %g, want 0.5", f)
	}
}

func TestHealthShift(t *testing.T) {
	h := NewHealth()
	h.DegradeNIC(2, 10, 20, 0.5)
	h.FlapPort(3, 5, 8, 1e-3)

	s := h.Shift(12)
	// The NIC window [10,20) becomes [0,8); the flap [5,8) is fully past.
	if f := s.CapFactor(LinkNICTx, 2, 4); f != 0.5 {
		t.Fatalf("shifted factor at 4 = %g, want 0.5", f)
	}
	if f := s.CapFactor(LinkNICTx, 2, 9); f != 1 {
		t.Fatalf("shifted factor at 9 = %g, want 1", f)
	}
	if l := s.PortLatency(3, 0); l != 0 {
		t.Fatalf("expired flap survived shift: %g", l)
	}
	var nilH *Health
	if nilH.Shift(3) != nil {
		t.Fatal("nil shift should stay nil")
	}
}

func TestDegradedSeconds(t *testing.T) {
	h := NewHealth()
	h.DegradeNIC(0, 10, 20, 0.5) // two links x 10 s
	h.FlapPort(1, 90, 110, 1e-3) // clipped to [90, 100)
	deg, flap := h.DegradedSeconds(100)
	if deg != 20 {
		t.Fatalf("degraded seconds = %g, want 20", deg)
	}
	if flap != 10 {
		t.Fatalf("flapping seconds = %g, want 10", flap)
	}
}
