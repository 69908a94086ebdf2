package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"spacesim/internal/job"
	"spacesim/internal/pario"
	"spacesim/internal/serve"
)

// The config digests of the smoke targets' runs, recorded from their
// ANALYSIS.json files before the flags became a job.Spec: the ledger's
// trend series for every spacesim invocation must stay where it was.
func TestFlagDigestsPinned(t *testing.T) {
	for _, c := range []struct {
		args, want string
	}{
		{"-n 600 -procs 3 -steps 2", "73eb1bd4157f2676a3974a5fa452d7d96075a28d777e6b02c62454eab6710c43"},
		{"-n 600 -procs 4 -steps 6 -faults 11 -fault-accel 3000", "51ea1f524a542f72f21abd32c892c576f4ae73edcfcbae8753327b6081c3650f"},
	} {
		sp, _, err := parse(strings.Fields(c.args))
		if err != nil {
			t.Fatalf("%s: %v", c.args, err)
		}
		if got := sp.Digest(); got != c.want {
			t.Errorf("spacesim %s: config digest %s, want %s", c.args, got, c.want)
		}
	}
}

// A fault acceleration that is negative or not finite is refused by both
// front ends, before anything runs: spacesim exits 2, and spacesimd answers
// a POST with 400 (JSON has no NaN or infinity, so those rows go through
// Submit). Zero means faults.DefaultAccel and is accepted by both.
func TestFaultAccelRefusedByBothFrontEnds(t *testing.T) {
	s, err := serve.New(serve.Config{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, c := range []struct {
		accel string
		ok    bool
		post  bool // the value has a JSON spelling
	}{
		{"NaN", false, false}, {"+Inf", false, false}, {"-Inf", false, false},
		{"-5", false, true}, {"-1e-300", false, true}, {"0", true, true},
	} {
		args := []string{"-ledger", "", "-n", "300", "-procs", "2", "-steps", "2", "-faults", "1", "-fault-accel", c.accel}
		sp, _, err := parse(args)
		if err != nil {
			t.Fatalf("%s: parse: %v", c.accel, err)
		}
		if err := sp.Validate(); (err == nil) != c.ok {
			t.Errorf("spacesim -fault-accel %s: Validate = %v", c.accel, err)
		}
		if !c.ok {
			if code := run(args); code != 2 {
				t.Errorf("spacesim -fault-accel %s: exit %d, want 2", c.accel, code)
			}
		}
		if _, err := s.Submit(sp); (err == nil) != c.ok {
			t.Errorf("spacesimd submit fault_accel %s: %v", c.accel, err)
		}
		if !c.post {
			continue
		}
		body := fmt.Sprintf(`{"n":300,"ranks":2,"steps":2,"fault_seed":1,"fault_accel":%s}`, c.accel)
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if want := map[bool]int{true: http.StatusAccepted, false: http.StatusBadRequest}[c.ok]; resp.StatusCode != want {
			t.Errorf("POST fault_accel %s: status %d, want %d", c.accel, resp.StatusCode, want)
		}
	}
}

// θ 0 would open every cell; no default stands in for it any more, so both
// front ends refuse it before anything runs: spacesim exits 2 and spacesimd
// answers a POST with 400.
func TestThetaZeroRefusedByBothFrontEnds(t *testing.T) {
	args := []string{"-ledger", "", "-n", "300", "-procs", "2", "-steps", "1", "-theta", "0"}
	if code := run(args); code != 2 {
		t.Errorf("spacesim -theta 0: exit %d, want 2", code)
	}
	s, err := serve.New(serve.Config{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"n":300,"ranks":2,"steps":1,"theta":0}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf(`POST {"theta":0}: status %d, want %d`, resp.StatusCode, http.StatusBadRequest)
	}
}

// One spec, parsed from spacesim's flags, run on spacesim's path and
// submitted to a spacesimd server, gives one config digest and one result
// (the daemon's digest over the final bodies and the energy history) —
// with faults and recovery, and without, where spacesim gathers the bodies
// for -checkpoint and the daemon checkpoints on cadence.
func TestCLIAndDaemonAgree(t *testing.T) {
	s, err := serve.New(serve.Config{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, args := range []string{
		"-n 600 -procs 4 -steps 6 -faults 11 -fault-accel 3000",
		"-n 500 -procs 3 -steps 3 -ic coldsphere -checkpoint " + t.TempDir(),
	} {
		sp, o, err := parse(strings.Fields(args))
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := job.Execute(sp, job.Hooks{GatherBodies: o.snapshot != ""})
		if err != nil {
			t.Fatalf("%s: %v", args, err)
		}
		cli := job.ResultDigest(job.Bodies(res.Bodies), res.EnergyHistory)

		v, err := s.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			State        string `json:"state"`
			ConfigDigest string `json:"config_digest"`
			ResultDigest string `json:"result_digest"`
			Error        string `json:"error"`
		}
		for deadline := time.Now().Add(60 * time.Second); got.State != serve.StateDone; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) || got.State == serve.StateFailed {
				t.Fatalf("%s: daemon job %s is %s (%s)", args, v.ID, got.State, got.Error)
			}
			resp, err := http.Get(ts.URL + "/jobs/" + v.ID)
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
		}
		if got.ConfigDigest != sp.Digest() {
			t.Errorf("%s: daemon config digest %s, spacesim %s", args, got.ConfigDigest, sp.Digest())
		}
		if got.ResultDigest != cli {
			t.Errorf("%s: daemon result digest %s, spacesim %s", args, got.ResultDigest, cli)
		}
	}
}

// -checkpoint DIR makes DIR when it does not exist yet, before the run, and
// the final state lands in it.
func TestCheckpointMakesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "not", "yet")
	if code := run(strings.Fields("-ic coldsphere -n 300 -procs 2 -steps 1 -ledger= -checkpoint " + dir)); code != 0 {
		t.Fatalf("spacesim exited %d", code)
	}
	data, err := pario.ReadStripe(filepath.Join(dir, "snapshot.0000"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 7*300 {
		t.Fatalf("snapshot holds %d floats, want 7 for each of 300 bodies", len(data))
	}
}

// Drift is relative to the initial energy; a run that starts at energy 0
// (no bodies, or one at rest) prints "—", never NaN or Inf.
func TestDriftFormat(t *testing.T) {
	for _, c := range []struct {
		e0, eN float64
		want   string
	}{
		{0, 0, "—"},
		{0, 1, "—"},
		{-2, -2, "0.00e+00"},
		{-2, -2.00002, "1.00e-05"},
		{4, 3, "2.50e-01"},
	} {
		if got := drift(c.e0, c.eN); got != c.want {
			t.Errorf("drift(%v, %v) = %q, want %q", c.e0, c.eN, got, c.want)
		}
	}
}

// One spec, whichever front end reads it: the fields a fuzz input sets
// (each present or absent by a bit of mask) rendered as spacesimd's POST
// body and as spacesim's flags read to the same job.Spec, the same
// core.RunConfig and the same config digest; absent keys and absent flags
// both keep job.Defaults, and a zero stays a zero. The daemon's own JSON of
// the spec (the /jobs view, the journal) reads back to it as well.
func FuzzSpecFrontEnds(f *testing.F) {
	f.Add(uint16(0), "plummer", 4000, 16, 10, int64(1), 0.005, 0.7, 0.01, 2, int64(0), 50.0)
	f.Add(uint16(0xfff), "coldsphere", 0, 0, 0, int64(0), 0.0, 0.0, 0.0, 0, int64(0), 0.0)
	f.Add(uint16(0x5a5), "plummer", 600, 4, 6, int64(-3), 1e-300, 0.3, 0.0, 1, int64(11), 3000.0)
	f.Fuzz(func(t *testing.T, mask uint16, scenario string, n, ranks, steps int, seed int64,
		dt, theta, eps float64, every int, faultSeed int64, accel float64) {
		if !utf8.ValidString(scenario) {
			t.Skip("JSON has no spelling for invalid UTF-8")
		}
		for _, x := range []float64{dt, theta, eps, accel} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Skip("JSON has no spelling for NaN or infinity")
			}
		}
		fields := []struct {
			key, flag string
			v         any
		}{
			{"scenario", "ic", scenario}, {"n", "n", n}, {"ranks", "procs", ranks},
			{"steps", "steps", steps}, {"seed", "seed", seed}, {"dt", "dt", dt},
			{"theta", "theta", theta}, {"eps", "eps", eps},
			{"checkpoint_every", "checkpoint-every", every},
			{"fault_seed", "faults", faultSeed}, {"fault_accel", "fault-accel", accel},
		}
		body := map[string]any{}
		var args []string
		for i, fd := range fields {
			if mask&(1<<i) == 0 {
				continue
			}
			body[fd.key] = fd.v
			s := fmt.Sprint(fd.v)
			if x, ok := fd.v.(float64); ok {
				s = strconv.FormatFloat(x, 'g', -1, 64)
			}
			args = append(args, "-"+fd.flag+"="+s)
		}
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		daemon, err := job.DecodeSpec(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", data, err)
		}
		cli, _, err := parse(args)
		if err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		if daemon != cli {
			t.Fatalf("POST %s reads %+v; spacesim %q reads %+v", data, daemon, args, cli)
		}
		dc, cc := daemon.RunConfig(), cli.RunConfig()
		if dc.Procs != cc.Procs || dc.Steps != cc.Steps || dc.Opt != cc.Opt || dc.Cluster.Name != cc.Cluster.Name {
			t.Fatalf("run configs differ: daemon %+v, spacesim %+v", dc, cc)
		}
		if daemon.Digest() != cli.Digest() {
			t.Fatalf("config digests differ: daemon %s, spacesim %s", daemon.Digest(), cli.Digest())
		}
		view, err := json.Marshal(daemon)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := job.DecodeSpec(bytes.NewReader(view)); err != nil || back != daemon {
			t.Fatalf("the daemon's JSON %s reads back to %+v (%v), want %+v", view, back, err, daemon)
		}
	})
}
