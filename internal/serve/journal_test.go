package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"spacesim/internal/core"
	"spacesim/internal/obs"
)

// seedKilledDaemonState fabricates the on-disk state a kill -9 leaves
// behind: a journal holding a submitted-and-started job (never finished, no
// clean shutdown) and the checkpoints the job wrote before the process
// died. The checkpoints come from running the identical simulation with a
// counting interrupt, exactly what the daemon's cooperative stop does.
func seedKilledDaemonState(t *testing.T, dir string, spec JobSpec, stopAfterSteps int) string {
	t.Helper()
	spec = spec.withDefaults()
	id := fmt.Sprintf("j%06d-%s", 1, spec.Digest()[:8])

	o := obs.New(false)
	cfg := spec.runConfig(o)
	ckDir := filepath.Join(dir, "jobs", id)
	if err := os.MkdirAll(ckDir, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = &core.CheckpointConfig{Dir: ckDir, Every: spec.CheckpointEvery}
	polls := 0
	cfg.Interrupt = func() bool { polls++; return polls > stopAfterSteps }
	ics, err := core.MakeICs(spec.Scenario, spec.Seed, spec.N)
	if err != nil {
		t.Fatal(err)
	}
	res := core.Run(cfg, ics)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Interrupted || res.CompletedSteps != stopAfterSteps {
		t.Fatalf("seed run: interrupted=%v at step %d, want stop at %d",
			res.Interrupted, res.CompletedSteps, stopAfterSteps)
	}

	var lines []byte
	for _, ev := range []event{
		{Ev: evSubmit, ID: id, TimeUnixNS: 1, Spec: &spec},
		{Ev: evStart, ID: id, TimeUnixNS: 2, Attempts: 1},
	} {
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(append(lines, b...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, JournalFile), lines, 0o644); err != nil {
		t.Fatal(err)
	}
	return id
}

func TestReplayResumesKilledJobBitIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec()
	spec.Steps = 4
	id := seedKilledDaemonState(t, dir, spec, 2)

	s := newTestServer(t, dir, nil)
	defer s.Drain()
	if n := s.m.replayed.Value(); n != 1 {
		t.Fatalf("replayed_jobs = %d, want 1", n)
	}
	got := waitJob(t, s, id, StateDone)
	if got.ResumedStep != 2 {
		t.Fatalf("resumed_step = %d, want 2 (the kill-time checkpoint)", got.ResumedStep)
	}
	if got.CacheHit {
		t.Fatal("replayed job claims a cache hit")
	}

	// The acceptance bar: the artifact of the killed-and-resumed job is
	// bit-identical to one computed with no interruption at all.
	clean := newTestServer(t, t.TempDir(), nil)
	defer clean.Drain()
	ref, err := clean.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitJob(t, clean, ref.ID, StateDone)
	if want.ResultDigest != got.ResultDigest {
		t.Fatalf("resumed digest %s != uninterrupted digest %s",
			got.ResultDigest, want.ResultDigest)
	}

	// Sequence numbering continues past the replayed job.
	next, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if jobSeq(next.ID) != 2 {
		t.Fatalf("post-replay sequence = %d, want 2", jobSeq(next.ID))
	}
	waitJob(t, s, next.ID, StateDone)
}

// A journal written before the rank runtime stopped being selectable: the
// two lines are what commit 623b44b's daemon appended for smallSpec() before
// a kill -9, "engine":"goroutine" included (withDefaults put it in every
// spec), and "engine_workers":1, which sized the rank pool until the force
// walk became a one-slot region. The job must load, run and finish; the dead
// keys change nothing, so the job is keyed and answered like the same spec
// submitted today.
func TestReplayJournalFromBeforeEngineRemoval(t *testing.T) {
	const id = "j000001-7fe866fd"
	journal := `{"ev":"submit","id":"j000001-7fe866fd","t":1,"spec":{"scenario":"plummer","n":300,"ranks":2,"steps":2,"engine":"goroutine","engine_workers":1,"seed":7,"dt":0.005,"theta":0.7,"eps":0.01,"checkpoint_every":1}}
{"ev":"start","id":"j000001-7fe866fd","t":2,"attempts":1}
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, JournalFile), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, dir, nil)
	defer s.Drain()
	if n := s.m.replayed.Value(); n != 1 {
		t.Fatalf("replayed_jobs = %d, want 1", n)
	}
	got := waitJob(t, s, id, StateDone)
	if want := smallSpec().withDefaults().Digest(); got.ConfigDigest != want {
		t.Fatalf("replayed job keyed %s, the same spec submitted now %s", got.ConfigDigest, want)
	}
	again, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if hit := waitJob(t, s, again.ID, StateDone); !hit.CacheHit || hit.ResultDigest != got.ResultDigest {
		t.Fatalf("resubmission: cache hit %v, digest %s; the replayed job produced %s",
			hit.CacheHit, hit.ResultDigest, got.ResultDigest)
	}
}

// tornJournal is a journal whose daemon died halfway through appending the
// start event after one submit.
func tornJournal(t testing.TB) []byte {
	spec := smallSpec().withDefaults()
	b, err := json.Marshal(event{Ev: evSubmit, ID: "j000001-deadbeef", TimeUnixNS: 1, Spec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	return append(b, []byte("\n{\"ev\":\"sta")...)
}

func TestReplayToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, JournalFile), tornJournal(t), 0o644); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, dir, nil)
	defer s.Drain()
	waitJob(t, s, "j000001-deadbeef", StateDone)
}

func TestReplayRejectsMidJournalCorruption(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, JournalFile),
		[]byte("{\"ev\":\"garbage\n{\"ev\":\"submit\",\"id\":\"j000001-x\",\"t\":1,\"spec\":{}}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Dir: dir}); err == nil {
		t.Fatal("mid-journal corruption did not fail startup")
	}
}

func TestJournalEventRoundtrip(t *testing.T) {
	dir := t.TempDir()
	j, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec().withDefaults()
	evs := []event{
		{Ev: evSubmit, ID: "j000001-ab", Spec: &spec},
		{Ev: evStart, ID: "j000001-ab", Attempts: 1},
		{Ev: evBackoff, ID: "j000001-ab", Retries: 1, RetryAtNS: 99, Error: "boom"},
		{Ev: evRequeue, ID: "j000001-ab"},
		{Ev: evStart, ID: "j000001-ab", Attempts: 2},
		{Ev: evDone, ID: "j000001-ab", ResultDigest: "abc", ResumedStep: 3},
	}
	for _, ev := range evs {
		if err := j.append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	if err := j.append(event{Ev: evCancel, ID: "x"}); err == nil {
		t.Fatal("append after close succeeded")
	}

	jobs, order, torn, err := replayJournal(dir)
	if err != nil || torn {
		t.Fatalf("replay: torn=%v err=%v", torn, err)
	}
	if len(order) != 1 {
		t.Fatalf("replayed %d jobs, want 1", len(order))
	}
	job := jobs["j000001-ab"]
	if job.State != StateDone || job.ResultDigest != "abc" || job.ResumedStep != 3 {
		t.Fatalf("folded job: state %s digest %s resumed %d",
			job.State, job.ResultDigest, job.ResumedStep)
	}
	if job.Attempts != 2 || job.Retries != 1 {
		t.Fatalf("attempts %d retries %d, want 2/1", job.Attempts, job.Retries)
	}
	if job.Error != "" {
		t.Fatalf("done job kept stale error %q", job.Error)
	}
}

// FuzzReplayJournal feeds replayJournal arbitrary journals, seeded from the
// torn-tail tables: any input must give an error or a job table in which
// every submitted id in order has its job, and never a panic.
func FuzzReplayJournal(f *testing.F) {
	torn := tornJournal(f)
	f.Add(torn)
	f.Add(torn[:bytes.IndexByte(torn, '\n')+1])
	f.Add(append(append([]byte{}, torn[:bytes.IndexByte(torn, '\n')+1]...), `{"ev":"start","id":"j000001-deadbeef","t":2,"attempts":1}`+"\n"...))
	f.Add([]byte("{\"ev\":\"garbage\n{\"ev\":\"submit\",\"id\":\"j000001-x\",\"t\":1,\"spec\":{}}\n"))
	f.Add([]byte(`{"ev":"done","id":"j000009-orphan","t":3}` + "\n"))
	f.Fuzz(func(t *testing.T, journal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, JournalFile), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		jobs, order, _, err := replayJournal(dir)
		if err != nil {
			return
		}
		for _, id := range order {
			if jobs[id] == nil {
				t.Fatalf("order names %q, which has no job", id)
			}
		}
	})
}
