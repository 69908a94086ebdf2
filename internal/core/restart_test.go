package core

import (
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"spacesim/internal/faults"
	"spacesim/internal/vec"
)

// recoveryBaseCfg is the shared small run used by the recovery tests: big
// enough that a mid-run crash lands between checkpoints, small enough to
// keep replay cheap.
func recoveryBaseCfg(dir string) RunConfig {
	return RunConfig{
		Cluster:      testCluster(),
		Procs:        4,
		Steps:        6,
		Opt:          Options{Theta: 0.7, DT: 0.01},
		GatherBodies: true,
		Checkpoint:   &CheckpointConfig{Dir: dir, Every: 2},
	}
}

// assertBitIdentical compares a recovered run against the uninterrupted
// baseline: gathered bodies and the whole energy history must match bit for
// bit — recovery must be invisible to the physics.
func assertBitIdentical(t *testing.T, base, rec Result) {
	t.Helper()
	if len(rec.Bodies) != len(base.Bodies) {
		t.Fatalf("recovered %d bodies, baseline %d", len(rec.Bodies), len(base.Bodies))
	}
	for i := range base.Bodies {
		b, r := base.Bodies[i], rec.Bodies[i]
		if b.ID != r.ID || b.Pos != r.Pos || b.Vel != r.Vel || b.Mass != r.Mass {
			t.Fatalf("body %d diverged:\n base %+v\n  rec %+v", i, b, r)
		}
	}
	for s := range base.EnergyHistory {
		b, r := base.EnergyHistory[s], rec.EnergyHistory[s]
		if b != r {
			t.Fatalf("energies at step %d diverged:\n base %+v\n  rec %+v", s, b, r)
		}
	}
}

// TestRecoveryBitIdentical pins the headline acceptance: a run that loses a
// rank mid-flight and rolls back to its last checkpoint finishes with
// accelerations, positions, and energies bit-identical to a run that never
// crashed.
func TestRecoveryBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ics := PlummerSphere(rng, 160, 1.0)

	base := Run(recoveryBaseCfg(t.TempDir()), ics)
	if base.Err != nil {
		t.Fatalf("baseline failed: %v", base.Err)
	}

	// Crash rank 2 at ~60% of the measured no-fault runtime: past the first
	// checkpoints, well before the end.
	crashAt := 0.6 * base.ElapsedVirtual
	cfg := RecoveryConfig{
		RunConfig: recoveryBaseCfg(t.TempDir()),
		Schedule: faults.Manual(4, 2*base.ElapsedVirtual,
			faults.Fault{Kind: faults.RankCrash, Rank: 2, Start: crashAt, Cause: "power supply"},
		),
	}
	rec, st, err := RunRecovered(cfg, ics)
	if err != nil {
		t.Fatalf("recovery failed: %v (stats %+v)", err, st)
	}
	if st.Crashes != 1 {
		t.Fatalf("expected exactly one crash to fire, got %d (attempts %d)", st.Crashes, st.Attempts)
	}
	if st.Attempts != 2 {
		t.Fatalf("expected 2 segments, got %d", st.Attempts)
	}
	if st.CrashRanks[0] != 2 {
		t.Fatalf("crashed rank %d, want 2", st.CrashRanks[0])
	}
	if math.Abs(st.CrashTimesSec[0]-crashAt) > 1e-9 {
		t.Fatalf("crash recorded at %g, scheduled %g", st.CrashTimesSec[0], crashAt)
	}
	if len(st.RestoredSteps) != 1 || st.RestoredSteps[0] == 0 {
		t.Fatalf("expected rollback to a real checkpoint, got %v", st.RestoredSteps)
	}
	if st.TotalVirtualSec <= base.ElapsedVirtual {
		t.Fatalf("replay should cost extra virtual time: total %g vs baseline %g",
			st.TotalVirtualSec, base.ElapsedVirtual)
	}
	assertBitIdentical(t, base, rec)
}

// TestScheduleReusable hands one schedule with one crash to two recovered
// runs: a schedule is a value, and the faults that fired in the first run
// are the first run's alone, so each run crashes once, records the same
// recovery and ends in the same state.
func TestScheduleReusable(t *testing.T) {
	ics := PlummerSphere(rand.New(rand.NewSource(42)), 160, 1.0)
	base := Run(recoveryBaseCfg(t.TempDir()), ics)
	sched := faults.Manual(4, 2*base.ElapsedVirtual,
		faults.Fault{Kind: faults.RankCrash, Rank: 2, Start: 0.6 * base.ElapsedVirtual, Cause: "power supply"},
	)
	var recs [2]faults.Recovery
	var results [2]Result
	for i := range recs {
		res, st, err := RunRecovered(RecoveryConfig{RunConfig: recoveryBaseCfg(t.TempDir()), Schedule: sched}, ics)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if st.Crashes != 1 || st.Attempts != 2 {
			t.Fatalf("run %d: %d crashes, %d attempts, want 1 and 2", i, st.Crashes, st.Attempts)
		}
		recs[i], results[i] = st, res
	}
	if !reflect.DeepEqual(recs[0], recs[1]) {
		t.Fatalf("recoveries differ:\n%+v\n%+v", recs[0], recs[1])
	}
	assertBitIdentical(t, results[0], results[1])
	assertBitIdentical(t, base, results[1])
}

// TestRecoveryCorruptStripeFallsBack injects a disk fault alongside the
// crash: the newest checkpoint has a corrupt stripe, so recovery must fall
// back (to an older checkpoint or the initial conditions) and still finish
// bit-identical.
func TestRecoveryCorruptStripeFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ics := PlummerSphere(rng, 160, 1.0)

	base := Run(recoveryBaseCfg(t.TempDir()), ics)
	if base.Err != nil {
		t.Fatalf("baseline failed: %v", base.Err)
	}

	// The disk fault strikes at once and corrupts rank 1's first checkpoint
	// write (step 3); the crash fires after it, so the scan must reject
	// ck-3 and restart from the initial conditions (ck-3 is the first
	// checkpoint, nothing older).
	cfg := RecoveryConfig{
		RunConfig: recoveryBaseCfg(t.TempDir()),
		Schedule: faults.Manual(4, 2*base.ElapsedVirtual,
			faults.Fault{Kind: faults.DiskCorrupt, Rank: 1, Start: 0, Cause: "disk drive"},
			faults.Fault{Kind: faults.RankCrash, Rank: 3, Start: 0.8 * base.ElapsedVirtual, Cause: "DRAM stick"},
		),
	}
	cfg.Checkpoint.Every = 3 // single checkpoint at step 3 of 6
	rec, st, err := RunRecovered(cfg, ics)
	if err != nil {
		t.Fatalf("recovery failed: %v (stats %+v)", err, st)
	}
	if st.Crashes != 1 {
		t.Fatalf("expected one crash, got %d", st.Crashes)
	}
	if st.CorruptStripes == 0 {
		t.Fatal("corrupt checkpoint was never detected")
	}
	if len(st.RestoredSteps) != 1 || st.RestoredSteps[0] != 0 {
		t.Fatalf("expected fallback to initial conditions, got %v", st.RestoredSteps)
	}
	assertBitIdentical(t, base, rec)
}

// TestRecoveryDiskFaultSparesEarlierStripes puts the disk fault between the
// step-3 checkpoint and the crash: the drive dies after rank 1 wrote its
// step-3 stripe and before it writes another, so that checkpoint is intact
// and recovery resumes from it, with no corrupt stripe found.
func TestRecoveryDiskFaultSparesEarlierStripes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ics := PlummerSphere(rng, 160, 1.0)

	baseCfg := recoveryBaseCfg(t.TempDir())
	baseCfg.Checkpoint.Every = 3
	base := Run(baseCfg, ics)
	if base.Err != nil {
		t.Fatalf("baseline failed: %v", base.Err)
	}
	ck3, ok := base.CheckpointClocks[3]
	crashAt := 0.8 * base.ElapsedVirtual
	if !ok || ck3 >= crashAt {
		t.Fatalf("step-3 checkpoint at %g (written %v), want one before the crash at %g", ck3, ok, crashAt)
	}

	cfg := RecoveryConfig{
		RunConfig: recoveryBaseCfg(t.TempDir()),
		Schedule: faults.Manual(4, 2*base.ElapsedVirtual,
			faults.Fault{Kind: faults.DiskCorrupt, Rank: 1, Start: (ck3 + crashAt) / 2, Cause: "disk drive"},
			faults.Fault{Kind: faults.RankCrash, Rank: 3, Start: crashAt, Cause: "DRAM stick"},
		),
	}
	cfg.Checkpoint.Every = 3
	rec, st, err := RunRecovered(cfg, ics)
	if err != nil {
		t.Fatalf("recovery failed: %v (stats %+v)", err, st)
	}
	if st.Crashes != 1 {
		t.Fatalf("expected one crash, got %d", st.Crashes)
	}
	if st.CorruptStripes != 0 {
		t.Fatalf("%d corrupt stripes, want none: the drive failed after the step-3 write", st.CorruptStripes)
	}
	if len(st.RestoredSteps) != 1 || st.RestoredSteps[0] != 3 {
		t.Fatalf("expected a resume from step 3, got %v", st.RestoredSteps)
	}
	assertBitIdentical(t, base, rec)
}

// TestRecoveryRepeatedCrashes pins the multi-cycle chain: crash, recover,
// crash again later in the replay, recover again — and the final state is
// still bit-identical to the uninterrupted twin.
func TestRecoveryRepeatedCrashes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ics := PlummerSphere(rng, 160, 1.0)

	base := Run(recoveryBaseCfg(t.TempDir()), ics)
	if base.Err != nil {
		t.Fatalf("baseline failed: %v", base.Err)
	}

	// First crash at ~45% of the fault-free runtime; the second is placed
	// late enough (global time) to fire during the replay segment.
	T := base.ElapsedVirtual
	cfg := RecoveryConfig{
		RunConfig: recoveryBaseCfg(t.TempDir()),
		Schedule: faults.Manual(4, 4*T,
			faults.Fault{Kind: faults.RankCrash, Rank: 2, Start: 0.45 * T, Cause: "power supply"},
			faults.Fault{Kind: faults.RankCrash, Rank: 1, Start: 0.80 * T, Cause: "DRAM stick"},
		),
	}
	rec, st, err := RunRecovered(cfg, ics)
	if err != nil {
		t.Fatalf("recovery failed: %v (stats %+v)", err, st)
	}
	if st.Crashes != 2 {
		t.Fatalf("expected both crashes to fire, got %d (times %v)", st.Crashes, st.CrashTimesSec)
	}
	if st.Attempts != 3 {
		t.Fatalf("expected 3 segments, got %d", st.Attempts)
	}
	if len(st.RestoredSteps) != 2 {
		t.Fatalf("expected 2 rollbacks, got %v", st.RestoredSteps)
	}
	if st.RestoredSteps[1] < st.RestoredSteps[0] {
		t.Fatalf("second rollback went backwards: %v", st.RestoredSteps)
	}
	assertBitIdentical(t, base, rec)
}

// TestResumeFromDiskBitIdentical pins the job-server restart path: a run is
// interrupted at a step boundary (flushing a checkpoint + energy sidecar),
// the process "dies", and a fresh RunRecovered on the same directory picks
// up from the on-disk stripes — finishing with bodies AND the full energy
// history bit-identical to a run that was never stopped.
func TestResumeFromDiskBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ics := PlummerSphere(rng, 160, 1.0)

	// Both runs poll Interrupt so their virtual schedules match exactly.
	mkCfg := func(dir string, stopAfter int) RunConfig {
		cfg := recoveryBaseCfg(dir)
		polls := 0
		cfg.Interrupt = func() bool {
			polls++
			return stopAfter > 0 && polls > stopAfter
		}
		return cfg
	}

	base := Run(mkCfg(t.TempDir(), 0), ics)
	if base.Err != nil {
		t.Fatalf("baseline failed: %v", base.Err)
	}

	dir := t.TempDir()
	part := Run(mkCfg(dir, 3), ics)
	if part.Err != nil || !part.Interrupted {
		t.Fatalf("expected a clean interrupt, got err=%v interrupted=%v", part.Err, part.Interrupted)
	}
	if part.CompletedSteps != 3 {
		t.Fatalf("interrupted after %d steps, want 3", part.CompletedSteps)
	}

	rec, st, err := RunRecovered(RecoveryConfig{
		RunConfig: mkCfg(dir, 0),
	}, ics)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if st.ResumedFromStep != 3 {
		t.Fatalf("expected resume from the interrupt-flushed checkpoint at step 3, got step %d",
			st.ResumedFromStep)
	}
	if st.Attempts != 1 {
		t.Fatalf("resume took %d segments, want 1", st.Attempts)
	}
	assertBitIdentical(t, base, rec)
}

// TestResumeFromDiskRepeated chains two kill/resume cycles through the
// on-disk path: interrupt, resume and interrupt again later, resume to
// completion — still bit-identical to the uninterrupted twin.
func TestResumeFromDiskRepeated(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ics := PlummerSphere(rng, 160, 1.0)

	mkCfg := func(dir string, stopAfter int) RunConfig {
		cfg := recoveryBaseCfg(dir)
		polls := 0
		cfg.Interrupt = func() bool {
			polls++
			return stopAfter > 0 && polls > stopAfter
		}
		return cfg
	}

	base := Run(mkCfg(t.TempDir(), 0), ics)
	dir := t.TempDir()

	part := Run(mkCfg(dir, 2), ics)
	if !part.Interrupted || part.CompletedSteps != 2 {
		t.Fatalf("first interrupt: completed=%d interrupted=%v", part.CompletedSteps, part.Interrupted)
	}

	// Second cycle: resume from step 2, interrupt again two boundaries
	// later (the resumed segment polls at steps 2, 3, 4, ...; the third
	// poll fires, stopping at step 4 — the cadence checkpoint just
	// written).
	mid, st, err := RunRecovered(RecoveryConfig{
		RunConfig: mkCfg(dir, 2),
	}, ics)
	if err != nil {
		t.Fatalf("mid resume failed: %v", err)
	}
	if st.ResumedFromStep != 2 {
		t.Fatalf("mid resume from step %d, want 2", st.ResumedFromStep)
	}
	if !mid.Interrupted || mid.CompletedSteps != 4 {
		t.Fatalf("second interrupt: completed=%d interrupted=%v", mid.CompletedSteps, mid.Interrupted)
	}

	rec, st2, err := RunRecovered(RecoveryConfig{
		RunConfig: mkCfg(dir, 0),
	}, ics)
	if err != nil {
		t.Fatalf("final resume failed: %v", err)
	}
	if st2.ResumedFromStep != 4 {
		t.Fatalf("final resume from step %d, want 4", st2.ResumedFromStep)
	}
	assertBitIdentical(t, base, rec)
}

// TestRecoveryNoFaults: the recovery driver on a clean schedule is exactly
// one segment and matches a plain Run.
func TestRecoveryNoFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ics := PlummerSphere(rng, 120, 1.0)

	base := Run(recoveryBaseCfg(t.TempDir()), ics)
	rec, st, err := RunRecovered(RecoveryConfig{
		RunConfig: recoveryBaseCfg(t.TempDir()),
		Schedule:  faults.Manual(4, 100),
	}, ics)
	if err != nil {
		t.Fatal(err)
	}
	if st.Attempts != 1 || st.Crashes != 0 {
		t.Fatalf("clean schedule took %d attempts, %d crashes", st.Attempts, st.Crashes)
	}
	assertBitIdentical(t, base, rec)
}

// TestProbeFaultsIsTheTwin: the probe runs without checkpoints, draws the
// schedule faults.New draws over its makespan on Procs ranks, and returns
// the run a recovery under that schedule reproduces bit for bit; an
// interrupted probe draws nothing.
func TestProbeFaultsIsTheTwin(t *testing.T) {
	ics := PlummerSphere(rand.New(rand.NewSource(7)), 120, 1.0)
	probeDir := t.TempDir()
	base, sched := ProbeFaults(recoveryBaseCfg(probeDir), ics, faults.Options{Seed: 11, Accel: 3000})
	if base.Err != nil || base.Interrupted {
		t.Fatalf("probe failed: err %v, interrupted %v", base.Err, base.Interrupted)
	}
	if ents, _ := os.ReadDir(probeDir); len(ents) != 0 {
		t.Fatalf("the probe wrote %d checkpoint files", len(ents))
	}
	want := faults.New(faults.Options{Ranks: 4, Horizon: base.ElapsedVirtual, Seed: 11, Accel: 3000})
	if !reflect.DeepEqual(sched, want) {
		t.Fatalf("schedule %+v, want %+v", sched, want)
	}
	rec, _, err := RunRecovered(RecoveryConfig{
		RunConfig: recoveryBaseCfg(t.TempDir()),
		Schedule:  sched,
	}, ics)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, base, rec)

	cfg := recoveryBaseCfg(t.TempDir())
	cfg.Interrupt = func() bool { return true }
	if base, sched := ProbeFaults(cfg, ics, faults.Options{Seed: 11, Accel: 3000}); !base.Interrupted || len(sched.Faults) != 0 {
		t.Fatalf("interrupted probe: interrupted %v, %d faults drawn", base.Interrupted, len(sched.Faults))
	}
}

// TestCheckpointRoundTrip pins the state serialization: encode → decode is
// the identity on every field recovery depends on.
func TestCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bodies := PlummerSphere(rng, 50, 1.0)
	acc := make([]vec.V3, len(bodies))
	for i := range acc {
		acc[i] = vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	for i := range bodies {
		bodies[i].Work = rng.Float64() * 100
		bodies[i].ID = int64(i) - 25 // include negatives
	}
	got, gotAcc := decodeState(encodeState(bodies, acc))
	for i := range bodies {
		if got[i].Pos != bodies[i].Pos || got[i].Vel != bodies[i].Vel ||
			got[i].Mass != bodies[i].Mass || got[i].Work != bodies[i].Work ||
			got[i].ID != bodies[i].ID {
			t.Fatalf("body %d: %+v != %+v", i, got[i], bodies[i])
		}
		if gotAcc[i] != acc[i] {
			t.Fatalf("acc %d: %v != %v", i, gotAcc[i], acc[i])
		}
	}
}
