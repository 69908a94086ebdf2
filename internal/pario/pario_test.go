package pario

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func TestStripeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, 10000)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	path, err := WriteStripe(dir, "snap", 7, data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadStripe(path, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(data) {
		t.Fatalf("len %d", len(got))
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestStripeWrongRank(t *testing.T) {
	dir := t.TempDir()
	path, err := WriteStripe(dir, "snap", 2, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadStripe(path, 3); err == nil {
		t.Fatal("rank mismatch must fail")
	}
}

func TestStripeCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	path, err := WriteStripe(dir, "snap", 0, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[30] ^= 0xff // flip a payload bit
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadStripe(path, 0); err == nil {
		t.Fatal("corruption must be detected")
	}
}

func TestStripeBadMagic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bogus.0000")
	if err := os.WriteFile(path, make([]byte, 64), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadStripe(path, 0); err == nil {
		t.Fatal("bad magic must fail")
	}
}

// ManyStripes: one file per rank, all verifiable — the "local disk on each
// processor" pattern.
func TestManyStripes(t *testing.T) {
	dir := t.TempDir()
	for rank := 0; rank < 16; rank++ {
		data := []float64{float64(rank), float64(rank * rank)}
		if _, err := WriteStripe(dir, "step0001", rank, data); err != nil {
			t.Fatal(err)
		}
	}
	for rank := 0; rank < 16; rank++ {
		path := filepath.Join(dir, "step0001.0000")
		_ = path
		got, err := ReadStripe(filepath.Join(dir, fileFor("step0001", rank)), rank)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != float64(rank) {
			t.Fatalf("rank %d payload wrong", rank)
		}
	}
}

func fileFor(name string, rank int) string {
	return name + "." + pad4(rank)
}

func pad4(n int) string {
	s := "0000" + itoa(n)
	return s[len(s)-4:]
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// Section 4.3 arithmetic: 1.5 TB over 24 h is 417 MB/s average; 1e16 flops
// over 24 h is ~116 Gflop/s; 250 local disks peak near 7 GB/s.
func TestFig7RunModel(t *testing.T) {
	m := Fig7Run()
	if got := m.AvgIORate() / 1e6; math.Abs(got-417.0) > 18 {
		t.Fatalf("avg IO = %.0f MB/s want ~417", got)
	}
	if got := m.AvgFlops() / 1e9; math.Abs(got-112) > 6 {
		t.Fatalf("avg flops = %.0f Gflop/s want ~112-116", got)
	}
	if got := m.PeakIORate() / 1e9; got < 6 || got > 8 {
		t.Fatalf("peak IO = %.1f GB/s want ~7", got)
	}
	if f := m.IOTime() / (m.HoursElapsed * 3600); f <= 0 || f > 0.1 {
		t.Fatalf("IO fraction = %v: checkpointing should be a small share", f)
	}
}
