package core

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"spacesim/internal/pario"
)

// TestResumeRejectsForeignSet resumes from checkpoint sets that verify on
// disk but do not fit the resuming run. Each must stop with an error that
// names the mismatch before any segment starts, never falling back to the
// initial conditions and never panicking on a rank.
func TestResumeRejectsForeignSet(t *testing.T) {
	cases := []struct {
		name            string
		procs, steps, n int  // the resuming run
		partial         bool // rewrite rank 0's newest stripe as five floats
		want            string
	}{
		{name: "another rank count", procs: 2, steps: 6, n: 160, want: "on 2 ranks, the run has 160"},
		{name: "another body count", procs: 4, steps: 6, n: 200, want: "the run has 200"},
		{name: "past the run's steps", procs: 4, steps: 3, n: 160, want: "past the run's 3 steps"},
		{name: "partial bodies", procs: 4, steps: 6, n: 160, partial: true, want: "not a whole number of bodies"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The set on disk: ck-2 and ck-4 of 160 bodies on 4 ranks.
			dir := t.TempDir()
			written := Run(recoveryBaseCfg(dir), PlummerSphere(rand.New(rand.NewSource(42)), 160, 1.0))
			if written.Err != nil {
				t.Fatal(written.Err)
			}
			if tc.partial {
				if _, err := pario.WriteStripe(dir, ckName(4), 0, make([]float64, 5)); err != nil {
					t.Fatal(err)
				}
			}
			cfg := recoveryBaseCfg(dir)
			cfg.Procs, cfg.Steps = tc.procs, tc.steps
			ics := PlummerSphere(rand.New(rand.NewSource(42)), tc.n, 1.0)
			_, st, err := RunRecovered(RecoveryConfig{RunConfig: cfg}, ics)
			if !errors.Is(err, errForeignSet) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %v naming %q", err, errForeignSet, tc.want)
			}
			if st.Attempts != 0 || st.ResumedFromStep != 0 {
				t.Fatalf("a segment ran (attempts %d, resumed from step %d)", st.Attempts, st.ResumedFromStep)
			}
		})
	}
}

// floatBytes and bytesFloats convert a stripe payload to and from the fuzz
// engine's bytes (little-endian; a trailing partial float is dropped).
func floatBytes(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

func bytesFloats(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// FuzzLoadCheckpoint puts arbitrary stripes under a checkpoint directory and
// scans it for a two-rank run: rank 0's stripe file as raw bytes, rank 1's
// payload and the energy sidecar's through pario (so their checksums hold
// and the set's own checks are what decide), all at one fuzzed step. The
// scan must give an error, no set, or a set that fits the run: whole bodies
// summing to its body count, a step within its steps and an energy record
// per step. It must never panic. Seeds: a set core.Run wrote, that set with
// the payload byte the injected disk fault flips, each damage of pario's
// TestStripeCorruptionSentinels to rank 0's stripe, and each mismatch of
// TestResumeRejectsForeignSet.
func FuzzLoadCheckpoint(f *testing.F) {
	dir := f.TempDir()
	cfg := recoveryBaseCfg(dir)
	cfg.Procs, cfg.Steps = 2, 4 // one checkpoint, at step 2
	if res := Run(cfg, PlummerSphere(rand.New(rand.NewSource(42)), 40, 1.0)); res.Err != nil {
		f.Fatal(res.Err)
	}
	stripe0, err := os.ReadFile(ckPath(dir, 2, 0))
	if err != nil {
		f.Fatal(err)
	}
	payload1, err := pario.ReadStripe(ckPath(dir, 2, 1), 1)
	if err != nil {
		f.Fatal(err)
	}
	energies, err := pario.ReadStripe(ckEnergyPath(dir, 2), 0)
	if err != nil {
		f.Fatal(err)
	}
	if seg, _, err := lastGoodCheckpoint(dir, 2, 40, 4); seg.restore == nil || err != nil {
		f.Fatalf("the set core.Run wrote does not load: step %d, err %v", seg.startStep, err)
	}
	p1, e := floatBytes(payload1), floatBytes(energies)
	f.Add(stripe0, p1, e, uint8(2), uint16(40), uint8(4))
	mangles := []func(raw []byte) []byte{
		func(raw []byte) []byte { raw[3*8] ^= 0x40; return raw },                 // corruptStripe
		func(raw []byte) []byte { raw[len(raw)-1] ^= 0x01; return raw },          // checksum bit-flip
		func(raw []byte) []byte { raw[0] ^= 0xff; return raw },                   // bad magic
		func(raw []byte) []byte { return raw[:3*8+12] },                          // truncated mid-payload
		func(raw []byte) []byte { return raw[:len(raw)-4] },                      // truncated checksum
		func(raw []byte) []byte { return nil },                                   // empty file
		func(raw []byte) []byte { raw[16+7] = 0x01; return raw },                 // count promises more
		func(raw []byte) []byte { raw[8] ^= 0x01; return raw },                   // wrong rank in header
		func(raw []byte) []byte { return append(raw[:24], raw[len(raw)-8:]...) }, // header alone
	}
	for _, m := range mangles {
		f.Add(m(append([]byte(nil), stripe0...)), p1, e, uint8(2), uint16(40), uint8(4))
	}
	f.Add(stripe0, p1, e, uint8(2), uint16(80), uint8(4))       // another body count
	f.Add(stripe0, p1, e, uint8(2), uint16(40), uint8(1))       // past the run's steps
	f.Add(stripe0, p1[:40], e, uint8(2), uint16(40), uint8(4))  // partial bodies
	f.Add(stripe0, p1, e[:8*8], uint8(2), uint16(40), uint8(4)) // short energy history
	f.Fuzz(func(t *testing.T, stripe0, payload1, energies []byte, at uint8, nbodies uint16, nsteps uint8) {
		dir := t.TempDir()
		if err := os.WriteFile(ckPath(dir, int(at), 0), stripe0, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := pario.WriteStripe(dir, ckName(int(at)), 1, bytesFloats(payload1)); err != nil {
			t.Fatal(err)
		}
		if _, err := pario.WriteStripe(dir, ckEnergyName(int(at)), 0, bytesFloats(energies)); err != nil {
			t.Fatal(err)
		}
		seg, _, err := lastGoodCheckpoint(dir, 2, int(nbodies), int(nsteps))
		if err != nil {
			if !errors.Is(err, errForeignSet) && !errors.Is(err, pario.ErrWrongRank) {
				t.Fatalf("error %v is neither a foreign set nor a misrouted stripe", err)
			}
			return
		}
		step, restore, hist := seg.startStep, seg.restore, seg.energies
		if restore == nil {
			return
		}
		if step != int(at) || step > int(nsteps) || len(hist) != step+1 || len(restore) != 2 {
			t.Fatalf("accepted step %d of %d steps with %d energy records and %d stripes",
				step, nsteps, len(hist), len(restore))
		}
		total := 0
		for _, data := range restore {
			local, acc := decodeState(data)
			if len(local)*ckFloatsPerBody != len(data) || len(acc) != len(local) {
				t.Fatalf("a stripe of %d floats decoded to %d bodies", len(data), len(local))
			}
			total += len(local)
		}
		if total != int(nbodies) {
			t.Fatalf("accepted %d bodies for a run of %d", total, nbodies)
		}
	})
}
