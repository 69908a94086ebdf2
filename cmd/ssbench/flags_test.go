package main

import (
	"flag"
	"strings"
	"testing"
	"time"
)

// saveFlags snapshots every flag on the global set and restores it when
// the test ends, so parseInvocation tests can mutate the real registered
// flags (the ones main uses) without leaking state between tests.
func saveFlags(t *testing.T) {
	t.Helper()
	saved := map[string]string{}
	flag.CommandLine.VisitAll(func(f *flag.Flag) {
		// The test binary's own -test.* flags stay untouched (some have
		// zero values their Set rejects, e.g. -test.fuzztime "").
		if !strings.HasPrefix(f.Name, "test.") {
			saved[f.Name] = f.Value.String()
		}
	})
	t.Cleanup(func() {
		for name, val := range saved {
			if err := flag.CommandLine.Set(name, val); err != nil {
				t.Fatalf("restore -%s: %v", name, err)
			}
		}
	})
}

// TestFlagsBeforeSubcommand pins `ssbench -http ... -sample-every ... fig8`.
func TestFlagsBeforeSubcommand(t *testing.T) {
	saveFlags(t)
	cmd, rest, err := parseInvocation(flag.CommandLine,
		[]string{"-http", "127.0.0.1:0", "-sample-every", "5ms", "fig8"})
	if err != nil {
		t.Fatal(err)
	}
	if cmd != "fig8" || len(rest) != 0 {
		t.Fatalf("cmd=%q rest=%v, want fig8 with no trailing args", cmd, rest)
	}
	if *httpAddr != "127.0.0.1:0" {
		t.Errorf("-http = %q, want 127.0.0.1:0", *httpAddr)
	}
	if *sampleEvery != 5*time.Millisecond {
		t.Errorf("-sample-every = %v, want 5ms", *sampleEvery)
	}
}

// TestFlagsAfterSubcommand pins `ssbench fig8 -http ... -quick`: the
// documented trailing-flag form must keep working.
func TestFlagsAfterSubcommand(t *testing.T) {
	saveFlags(t)
	cmd, rest, err := parseInvocation(flag.CommandLine,
		[]string{"fig8", "-http", "localhost:9090", "-sample-every", "50ms", "-quick"})
	if err != nil {
		t.Fatal(err)
	}
	if cmd != "fig8" || len(rest) != 0 {
		t.Fatalf("cmd=%q rest=%v, want fig8 with no trailing args", cmd, rest)
	}
	if *httpAddr != "localhost:9090" {
		t.Errorf("-http = %q, want localhost:9090", *httpAddr)
	}
	if *sampleEvery != 50*time.Millisecond {
		t.Errorf("-sample-every = %v, want 50ms", *sampleEvery)
	}
	if !*quick {
		t.Error("-quick after the subcommand not applied")
	}
}

// TestFlagsMixedOrder pins flags split across both positions.
func TestFlagsMixedOrder(t *testing.T) {
	saveFlags(t)
	cmd, _, err := parseInvocation(flag.CommandLine,
		[]string{"-quick", "analyze", "-http", ":0"})
	if err != nil {
		t.Fatal(err)
	}
	if cmd != "analyze" {
		t.Fatalf("cmd = %q, want analyze", cmd)
	}
	if !*quick {
		t.Error("-quick before the subcommand not applied")
	}
	if *httpAddr != ":0" {
		t.Errorf("-http = %q, want :0", *httpAddr)
	}
}

// TestOwnFlagCmdsBypassReparse pins that diff/faultsweep/trend/report keep
// their trailing arguments unparsed: `-accel` is not a global flag, so a
// global re-parse would reject the invocation.
func TestOwnFlagCmdsBypassReparse(t *testing.T) {
	saveFlags(t)
	cmd, rest, err := parseInvocation(flag.CommandLine,
		[]string{"faultsweep", "-accel", "40", "-o", "out.json"})
	if err != nil {
		t.Fatal(err)
	}
	if cmd != "faultsweep" {
		t.Fatalf("cmd = %q, want faultsweep", cmd)
	}
	want := []string{"-accel", "40", "-o", "out.json"}
	if len(rest) != len(want) {
		t.Fatalf("rest = %v, want %v", rest, want)
	}
	for i := range want {
		if rest[i] != want[i] {
			t.Fatalf("rest = %v, want %v", rest, want)
		}
	}
}

// TestNoSubcommand pins the empty invocation.
func TestNoSubcommand(t *testing.T) {
	saveFlags(t)
	cmd, rest, err := parseInvocation(flag.CommandLine, []string{"-quick"})
	if err != nil {
		t.Fatal(err)
	}
	if cmd != "" || len(rest) != 0 {
		t.Fatalf("cmd=%q rest=%v, want empty", cmd, rest)
	}
}
