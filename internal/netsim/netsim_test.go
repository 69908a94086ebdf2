package netsim

import (
	"math"
	"testing"
	"testing/quick"
)

func ssNet(t *testing.T) *Network {
	t.Helper()
	n, err := New(SpaceSimulatorTopology(), ProfileTCP)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Topology{}, ProfileTCP); err == nil {
		t.Fatal("empty topology must fail")
	}
	bad := SpaceSimulatorTopology()
	bad.Efficiency = 0
	if _, err := New(bad, ProfileTCP); err == nil {
		t.Fatal("zero efficiency must fail")
	}
	if _, err := New(SpaceSimulatorTopology(), Profile{Name: "x"}); err == nil {
		t.Fatal("profile without bandwidth must fail")
	}
}

func TestModuleAndSwitchAssignment(t *testing.T) {
	topo := SpaceSimulatorTopology()
	if topo.Module(0) != 0 || topo.Module(15) != 0 || topo.Module(16) != 1 {
		t.Fatal("module assignment wrong")
	}
	// 15 modules x 16 ports = 240 ports on switch A
	if topo.Switch(239) != 0 {
		t.Fatal("node 239 must be on switch A")
	}
	if topo.Switch(240) != 1 {
		t.Fatal("node 240 must be on switch B")
	}
}

// Figure 2: the latency ordering and peak-bandwidth ordering of the library
// profiles must match the paper's measurements.
func TestProfileLatencyAndPeakOrdering(t *testing.T) {
	if !(ProfileTCP.LatencySec < ProfileLAM.LatencySec &&
		ProfileLAM.LatencySec < ProfileMPICH1.LatencySec) {
		t.Fatal("latency ordering TCP < LAM < MPICH violated")
	}
	// TCP achieves the highest large-message bandwidth, 779 Mb/s.
	big := int64(8 << 20)
	bwTCP := ProfileTCP.Bandwidth(big)
	for _, p := range []Profile{ProfileLAM, ProfileLAMO, ProfileMPICH1} {
		if p.Bandwidth(big) >= bwTCP {
			t.Fatalf("%s large-message bandwidth %.0f >= TCP %.0f", p.Name, p.Bandwidth(big), bwTCP)
		}
	}
	if bwTCP < 700e6 || bwTCP > 779e6 {
		t.Fatalf("TCP 8MB bandwidth = %.1f Mb/s, want ~760-779", bwTCP/1e6)
	}
}

func TestBandwidthMonotoneInSize(t *testing.T) {
	// Within each eager/rendezvous regime, NetPIPE bandwidth grows with
	// message size (latency amortizes).
	for _, p := range []Profile{ProfileMPICH1, ProfileLAM, ProfileLAMO, ProfileTCP} {
		prev := 0.0
		for _, sz := range []int64{64, 1024, 16 * 1024, 1 << 20, 8 << 20} {
			bw := p.Bandwidth(sz)
			if bw <= prev {
				t.Fatalf("%s: bandwidth not increasing at %d bytes", p.Name, sz)
			}
			prev = bw
		}
	}
}

func TestTransferTimeSelfSend(t *testing.T) {
	n := ssNet(t)
	local := n.TransferTime(3, 3, 1<<20)
	remote := n.TransferTime(3, 4, 1<<20)
	if local >= remote {
		t.Fatal("local copy must beat the wire")
	}
}

// Section 3.1: 16 processors on one module sending to 16 on another module
// see aggregate throughput of about 6000 Mb/s (the 8 Gb/s backplane derated).
func TestCrossModuleAggregateMatchesPaper(t *testing.T) {
	n := ssNet(t)
	flows := n.Topo.CrossModuleFlows(0, 1)
	if len(flows) != 16 {
		t.Fatalf("want 16 flows, got %d", len(flows))
	}
	agg := n.AggregateBandwidth(flows)
	if agg < 5500e6 || agg > 6500e6 {
		t.Fatalf("cross-module aggregate = %.0f Mb/s, paper ~6000", agg/1e6)
	}
}

// Within one 16-port module, messages are non-blocking: every flow gets the
// full NIC-limited rate.
func TestIntraModuleNonBlocking(t *testing.T) {
	n := ssNet(t)
	var flows []Flow
	for i := 0; i < 8; i++ {
		flows = append(flows, Flow{Src: i, Dst: i + 8}) // all within module 0
	}
	rates := n.FairShare(flows)
	for i, r := range rates {
		if math.Abs(r-n.Topo.NICBps) > 1e-6*n.Topo.NICBps {
			t.Fatalf("intra-module flow %d rate = %.0f, want NIC line rate", i, r)
		}
	}
}

// The inter-switch trunk limits traffic between the FastIron 1500 and 800,
// which "limits the scaling of codes running on more than about 256
// processors".
func TestTrunkLimitsCrossSwitchTraffic(t *testing.T) {
	n := ssNet(t)
	topo := n.Topo
	var flows []Flow
	// 32 flows from switch A (module 0-1) to switch B (module 15+)
	for i := 0; i < 32; i++ {
		flows = append(flows, Flow{Src: i, Dst: 240 + i%48})
	}
	agg := n.AggregateBandwidth(flows)
	limit := topo.TrunkBps * topo.Efficiency
	if agg > limit*1.01 {
		t.Fatalf("cross-switch aggregate %.0f exceeds trunk limit %.0f", agg, limit)
	}
	if agg < 0.9*limit {
		t.Fatalf("cross-switch aggregate %.0f should saturate trunk %.0f", agg, limit)
	}
}

func TestHypercubePairs(t *testing.T) {
	flows := HypercubePairs(16, 0)
	if len(flows) != 16 { // 8 pairs x 2 directions
		t.Fatalf("dim-0 flows = %d", len(flows))
	}
	for _, f := range flows {
		if f.Src^f.Dst != 1 {
			t.Fatalf("dim-0 pair %d-%d", f.Src, f.Dst)
		}
	}
	// Hypercube dim beyond range yields partners >= nprocs: no flows.
	if len(HypercubePairs(16, 4)) != 0 {
		t.Fatal("partners out of range must be skipped")
	}
}

// Low hypercube dimensions stay within a module (full rate), the dimension
// crossing module boundaries gets squeezed by the backplane.
func TestHypercubeDimensionCrossover(t *testing.T) {
	n := ssNet(t)
	intra := n.AggregateBandwidth(HypercubePairs(32, 0)) // neighbors, same module
	cross := n.AggregateBandwidth(HypercubePairs(32, 4)) // rank^16: module hop
	if intra <= cross {
		t.Fatalf("intra-module aggregate %.0f must beat cross-module %.0f", intra, cross)
	}
}

func TestCongestedTransferSlower(t *testing.T) {
	n := ssNet(t)
	flows := n.Topo.CrossModuleFlows(0, 1)
	// A payload moves at its fair share when that is below the library's
	// peak, so a crowded backplane must squeeze the share under the peak.
	if share := n.FairShare(flows)[0]; share >= n.Prof.PeakBps {
		t.Fatalf("congested share %.3g b/s must be under the uncontended %.3g", share, n.Prof.PeakBps)
	}
}

// Property: fair shares never exceed NIC line rate, are non-negative, and
// total throughput never exceeds the sum of NIC capacities.
func TestFairShareInvariants(t *testing.T) {
	n := ssNet(t)
	f := func(seed int64, nf uint8) bool {
		nflows := int(nf%24) + 1
		flows := make([]Flow, nflows)
		s := seed
		next := func(mod int) int {
			s = s*6364136223846793005 + 1442695040888963407
			v := int((s >> 33) % int64(mod))
			if v < 0 {
				v += mod
			}
			return v
		}
		for i := range flows {
			flows[i] = Flow{Src: next(n.Topo.Nodes), Dst: next(n.Topo.Nodes)}
		}
		rates := n.FairShare(flows)
		total := 0.0
		for i, r := range rates {
			if r < 0 {
				return false
			}
			if flows[i].Src != flows[i].Dst && r > n.Topo.NICBps*1.0001 {
				return false
			}
			if flows[i].Src != flows[i].Dst {
				total += r
			}
		}
		return total <= float64(nflows)*n.Topo.NICBps*1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding a competing flow on a shared bottleneck never increases
// an existing flow's rate.
func TestFairShareMonotoneUnderLoad(t *testing.T) {
	n := ssNet(t)
	base := []Flow{{Src: 0, Dst: 17}} // crosses module 0 -> 1
	r1 := n.FairShare(base)[0]
	for extra := 1; extra <= 15; extra++ {
		flows := append([]Flow{}, base...)
		for i := 1; i <= extra; i++ {
			flows = append(flows, Flow{Src: i, Dst: 17 + i})
		}
		r := n.FairShare(flows)[0]
		if r > r1*1.0001 {
			t.Fatalf("rate grew from %.0f to %.0f with %d competitors", r1, r, extra)
		}
		r1 = r
	}
}

func BenchmarkFairShare64Flows(b *testing.B) {
	n := MustNew(SpaceSimulatorTopology(), ProfileTCP)
	var flows []Flow
	for i := 0; i < 64; i++ {
		flows = append(flows, Flow{Src: i * 3 % 294, Dst: (i*7 + 40) % 294})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.FairShare(flows)
	}
}

func TestPathLinks(t *testing.T) {
	topo := SpaceSimulatorTopology() // 16 ports/module, 15 modules on switch A

	if got := topo.PathLinks(5, 5); got != nil {
		t.Fatalf("self-send crosses links: %v", got)
	}

	kinds := func(links []Link) []LinkKind {
		out := make([]LinkKind, len(links))
		for i, l := range links {
			out[i] = l.Kind
		}
		return out
	}
	eq := func(a []LinkKind, b ...LinkKind) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	// Same module: only the two NICs are shared.
	intra := topo.PathLinks(0, 15)
	if !eq(kinds(intra), LinkNICTx, LinkNICRx) {
		t.Fatalf("intra-module path: %v", intra)
	}
	if intra[0].ID != 0 || intra[1].ID != 15 || intra[0].CapacityBps != topo.NICBps {
		t.Fatalf("intra-module path detail: %v", intra)
	}

	// Cross-module, same switch: NICs plus the backplane up/down pair.
	cross := topo.PathLinks(0, 16)
	if !eq(kinds(cross), LinkNICTx, LinkNICRx, LinkModuleUp, LinkModuleDown) {
		t.Fatalf("cross-module path: %v", cross)
	}
	if cross[2].ID != 0 || cross[3].ID != 1 {
		t.Fatalf("cross-module module ids: %v", cross)
	}
	wantCap := topo.ModuleUplinkBps * topo.Efficiency
	if cross[2].CapacityBps != wantCap || cross[3].CapacityBps != wantCap {
		t.Fatalf("backplane capacity not derated: %v", cross)
	}

	// Cross-switch: additionally the trunk, also derated.
	far := topo.PathLinks(0, 240)
	if !eq(kinds(far), LinkNICTx, LinkNICRx, LinkModuleUp, LinkModuleDown, LinkTrunk) {
		t.Fatalf("cross-switch path: %v", far)
	}
	trunk := far[len(far)-1]
	if trunk.CapacityBps != topo.TrunkBps*topo.Efficiency {
		t.Fatalf("trunk capacity: %v", trunk)
	}
	if trunk.Name() != "trunk" || far[0].Name() != "nic-tx 0" || far[2].Name() != "module-up 0" {
		t.Fatalf("link names: %q %q %q", trunk.Name(), far[0].Name(), far[2].Name())
	}
}
