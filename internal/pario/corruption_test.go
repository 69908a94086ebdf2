package pario

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"testing"
)

// stripeMangles damage a valid stripe of rank 4 in every way the restart
// driver must distinguish, each with the wrapped sentinel it must map to:
// recoverable damage is ErrCorrupt (retry an older checkpoint), a misrouted
// read is ErrWrongRank (a bug, not a disk fault).
var stripeMangles = []struct {
	name     string
	mangle   func(raw []byte) []byte
	sentinel error
}{
	{
		name:     "payload bit-flip",
		mangle:   func(raw []byte) []byte { raw[3*8+5] ^= 0x10; return raw },
		sentinel: ErrCorrupt,
	},
	{
		name:     "checksum bit-flip",
		mangle:   func(raw []byte) []byte { raw[len(raw)-1] ^= 0x01; return raw },
		sentinel: ErrCorrupt,
	},
	{
		name:     "bad magic",
		mangle:   func(raw []byte) []byte { raw[0] ^= 0xff; return raw },
		sentinel: ErrCorrupt,
	},
	{
		name:     "truncated mid-payload",
		mangle:   func(raw []byte) []byte { return raw[:3*8+12] },
		sentinel: ErrCorrupt,
	},
	{
		name:     "truncated checksum",
		mangle:   func(raw []byte) []byte { return raw[:len(raw)-4] },
		sentinel: ErrCorrupt,
	},
	{
		name:     "empty file",
		mangle:   func(raw []byte) []byte { return nil },
		sentinel: ErrCorrupt,
	},
	{
		name: "count promises more than the file holds",
		mangle: func(raw []byte) []byte {
			binary.LittleEndian.PutUint64(raw[16:], 1<<40)
			return raw
		},
		sentinel: ErrCorrupt,
	},
	{
		// 8·(2^61+5) wraps to 40 in 64 bits: plus the overhead, exactly the
		// 72 bytes of a five-value stripe.
		name: "count wraps around to the file size",
		mangle: func(raw []byte) []byte {
			binary.LittleEndian.PutUint64(raw[16:], 1<<61+5)
			return raw
		},
		sentinel: ErrCorrupt,
	},
	{
		name: "wrong rank in header",
		mangle: func(raw []byte) []byte {
			binary.LittleEndian.PutUint64(raw[8:], 9)
			return raw
		},
		sentinel: ErrWrongRank,
	},
}

// stripePayload is the five values every mangled stripe starts from.
var stripePayload = []float64{1.5, -2.25, 3.125, 0, 42}

// TestStripeCorruptionSentinels checks each of stripeMangles maps to its
// sentinel, and only to it.
func TestStripeCorruptionSentinels(t *testing.T) {
	for _, tc := range stripeMangles {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path, err := WriteStripe(dir, "ck", 4, stripePayload)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mangle(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = ReadStripe(path, 4)
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("err = %v, want %v", err, tc.sentinel)
			}
			// The two sentinels must stay distinguishable.
			other := ErrWrongRank
			if tc.sentinel == ErrWrongRank {
				other = ErrCorrupt
			}
			if errors.Is(err, other) {
				t.Fatalf("err %v matches both sentinels", err)
			}
		})
	}
}

// TestStripeIntactStillReads guards against the size check rejecting a
// well-formed stripe (including the empty payload).
func TestStripeIntactStillReads(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{0, 1, 1000} {
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(i) * 0.5
		}
		path, err := WriteStripe(dir, "ok", 2, data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadStripe(path, 2)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: read %d values", n, len(got))
		}
	}
}

// FuzzReadStripe feeds ReadStripe arbitrary files, seeded with a valid
// stripe and every mangle of stripeMangles. It must never panic; what it
// rejects it rejects with one of the two sentinels, and what it accepts is
// a well-formed stripe: written again, the values give back the same bytes.
func FuzzReadStripe(f *testing.F) {
	dir := f.TempDir()
	path, err := WriteStripe(dir, "seed", 4, stripePayload)
	if err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	for _, tc := range stripeMangles {
		f.Add(tc.mangle(append([]byte(nil), raw...)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := dir + "/stripe"
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadStripe(path, 4)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrWrongRank) {
				t.Fatalf("error %v is neither sentinel", err)
			}
			return
		}
		again, err := WriteStripe(dir, "again", 4, got)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := os.ReadFile(again); err != nil || !bytes.Equal(back, data) {
			t.Fatalf("accepted %d bytes that do not round-trip (%v)", len(data), err)
		}
	})
}
