package npb

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// npbResultsDigest is the SHA-256 over every kernel's Result bits (see
// TestNPBResultsPinned). A refactor that keeps the numerics and the
// virtual-time accounting keeps it; anything else must say why it moved.
// It moved when every message came to leave through its sender's NIC one
// after another and pay the per-message overhead once (bb26d911… before).
const npbResultsDigest = "58e0107bc1fa11ac8df53966a697c6d49e96eca893cbd9eb4b8196edcf099364"

// TestNPBResultsPinned hashes ElapsedVirtual, Ops and MopsTotal (as float
// bits), Verified and VerifyDetail of every kernel at procs 1, 2, 4 and 8
// (and 3 for IS and EP, which take any rank count) and classes A and C.
// The kernels' schedules are a function of the message DAG, so the digest
// is the same at every GOMAXPROCS (`make widths` runs it at 1, 2, 4, 8).
func TestNPBResultsPinned(t *testing.T) {
	h := sha256.New()
	for _, b := range []Benchmark{CG, MG, FT, IS, EP, BT, SP, LU} {
		procs := []int{1, 2, 4, 8}
		if b == IS || b == EP {
			procs = append(procs, 3)
		}
		for _, p := range procs {
			for _, class := range []string{"A", "C"} {
				res, err := Run(b, cl(), p, class)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range []float64{res.ElapsedVirtual, res.Ops, res.MopsTotal} {
					binary.Write(h, binary.LittleEndian, math.Float64bits(v))
				}
				fmt.Fprintf(h, "%s/%d/%s %v %q\n", b, p, class, res.Verified, res.VerifyDetail)
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != npbResultsDigest {
		t.Fatalf("npb results digest %s, pinned %s", got, npbResultsDigest)
	}
}
