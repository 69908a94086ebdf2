package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"spacesim/internal/core"
	"spacesim/internal/job"
	"spacesim/internal/obs/ledger"
)

// seedKilledDaemonState fabricates the on-disk state a kill -9 leaves
// behind: a journal holding a submitted-and-started job (never finished, no
// clean shutdown) and the checkpoints the job wrote before the process
// died. The checkpoints come from running the identical simulation with a
// counting interrupt, exactly what the daemon's cooperative stop does.
func seedKilledDaemonState(t *testing.T, dir string, spec job.Spec, stopAfterSteps int) string {
	t.Helper()
	id := fmt.Sprintf("j%06d-%s", 1, spec.Digest()[:8])

	cfg := spec.RunConfig()
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

	writeJournal(t, dir,
		event{Ev: evSubmit, ID: id, TimeUnixNS: 1, Spec: &spec},
		event{Ev: evStart, ID: id, TimeUnixNS: 2, Attempts: 1})
	return id
}

// writeJournal appends events to dir's journal the way the daemon does.
func writeJournal(t testing.TB, dir string, evs ...event) {
	t.Helper()
	f, err := ledger.OpenJSONL(filepath.Join(dir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, ev := range evs {
		if err := ledger.AppendJSONL(f, ev); err != nil {
			t.Fatal(err)
		}
	}
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
	if want := smallSpec().Digest(); got.ConfigDigest != want {
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
	spec := smallSpec()
	b, err := json.Marshal(event{Ev: evSubmit, ID: "j000001-deadbeef", TimeUnixNS: 1, Spec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	return append(b, []byte("\n{\"ev\":\"sta")...)
}

// A crash mid-append leaves a final line without its newline: torn
// mid-record, or whole but for the newline. Either way the daemon starts,
// ends the line and appends after it, and the daemon after that reads past
// the torn record to the events the first one appended.
func TestReplayToleratesTornTail(t *testing.T) {
	torn := tornJournal(t)
	for name, journal := range map[string][]byte{
		"torn":         torn,
		"unterminated": torn[:bytes.IndexByte(torn, '\n')],
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, JournalFile), journal, 0o644); err != nil {
				t.Fatal(err)
			}
			s := newTestServer(t, dir, nil)
			waitJob(t, s, "j000001-deadbeef", StateDone)
			s.Drain()

			// The last line was ended, not extended by the
			// appends after it: the next start reads the job as the last
			// one left it.
			again := newTestServer(t, dir, nil)
			defer again.Drain()
			waitJob(t, again, "j000001-deadbeef", StateDone)
		})
	}
}

// A line no crash leaves — whole JSON with a stray brace after it — before
// the last is corruption, and the daemon refuses to start on it. (A line
// that breaks off inside its value is a torn record, skipped anywhere.)
func TestReplayRejectsMidJournalCorruption(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, JournalFile),
		[]byte("{\"ev\":\"garbage\"}}\n{\"ev\":\"submit\",\"id\":\"j000001-x\",\"t\":1,\"spec\":{}}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Dir: dir}); err == nil {
		t.Fatal("mid-journal corruption did not fail startup")
	}
}

// A submission the journal cannot hold is refused and leaves no job behind:
// the table never holds a job a restart would not replay.
func TestSubmitRefusedWhenJournalUnwritable(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir, nil)
	defer s.Drain()
	s.journal.Close()
	if _, err := s.Submit(smallSpec()); err == nil {
		t.Fatal("submit succeeded with no journal to write")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.jobs) != 0 || len(s.order) != 0 || s.m.submitted.Value() != 0 {
		t.Fatalf("refused submit left %d jobs, %d ids, %d counted",
			len(s.jobs), len(s.order), s.m.submitted.Value())
	}
}

// The journal stays open after Drain: a cancel that arrives before the
// process exits is journaled, so the next start does not requeue the job.
func TestCancelAfterDrainJournaled(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir, nil)
	s.Drain()
	v, err := s.Submit(smallSpec()) // no worker left to take it: stays queued
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	jobs, _, _, err := replayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := jobs[v.ID].State; got != StateCanceled {
		t.Fatalf("replayed job reads %s, want %s", got, StateCanceled)
	}
}

func TestJobSeq(t *testing.T) {
	for id, want := range map[string]int{
		"j000012-abcdef01": 12, "j000009-x": 9, "j1234567-y": 1234567,
		"": 0, "x000003-z": 0, "j-": 0, "jabc-1": 0, "j12x-": 0, "j5": 0,
	} {
		if got := jobSeq(id); got != want {
			t.Errorf("jobSeq(%q) = %d, want %d", id, got, want)
		}
	}
}

// everyKind is a journal holding every event kind: a job that backs off
// once and then finishes, one that fails with its retry count, one whose
// fail predates the count (it keeps the backoff's), and one canceled while
// queued.
func everyKind() []event {
	spec := smallSpec()
	return []event{
		{Ev: evSubmit, ID: "j000001-ab", TimeUnixNS: 1, Spec: &spec},
		{Ev: evStart, ID: "j000001-ab", TimeUnixNS: 2, Attempts: 1},
		{Ev: evBackoff, ID: "j000001-ab", TimeUnixNS: 3, Retries: 1, RetryAtNS: 99, Error: "boom"},
		{Ev: evRequeue, ID: "j000001-ab", TimeUnixNS: 4},
		{Ev: evStart, ID: "j000001-ab", TimeUnixNS: 5, Attempts: 2},
		{Ev: evDone, ID: "j000001-ab", TimeUnixNS: 6, ResultDigest: "abc", ResumedStep: 3},
		{Ev: evSubmit, ID: "j000002-cd", TimeUnixNS: 7, Spec: &spec},
		{Ev: evStart, ID: "j000002-cd", TimeUnixNS: 8, Attempts: 1},
		{Ev: evBackoff, ID: "j000002-cd", TimeUnixNS: 9, Retries: 1, RetryAtNS: 10, Error: "boom"},
		{Ev: evStart, ID: "j000002-cd", TimeUnixNS: 11, Attempts: 2},
		{Ev: evFail, ID: "j000002-cd", TimeUnixNS: 12, Retries: 2, Error: "bust"},
		{Ev: evSubmit, ID: "j000003-ef", TimeUnixNS: 13, Spec: &spec},
		{Ev: evBackoff, ID: "j000003-ef", TimeUnixNS: 14, Retries: 1, RetryAtNS: 15, Error: "boom"},
		{Ev: evFail, ID: "j000003-ef", TimeUnixNS: 16, Error: "bust"},
		{Ev: evSubmit, ID: "j000004-01", TimeUnixNS: 17, Spec: &spec},
		{Ev: evCancel, ID: "j000004-01", TimeUnixNS: 18},
	}
}

func TestJournalEventRoundtrip(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, everyKind()...)
	jobs, order, torn, err := replayJournal(dir)
	if err != nil || torn {
		t.Fatalf("replay: torn=%v err=%v", torn, err)
	}
	if len(order) != 4 {
		t.Fatalf("replayed %d jobs, want 4", len(order))
	}
	done := jobs["j000001-ab"]
	if done.State != StateDone || done.ResultDigest != "abc" || done.ResumedStep != 3 {
		t.Fatalf("done job: state %s digest %s resumed %d",
			done.State, done.ResultDigest, done.ResumedStep)
	}
	if done.Attempts != 2 || done.Retries != 1 || done.FinishedUnixNS != 6 {
		t.Fatalf("done job: attempts %d retries %d finished %d, want 2/1/6",
			done.Attempts, done.Retries, done.FinishedUnixNS)
	}
	if done.Error != "" {
		t.Fatalf("done job kept stale error %q", done.Error)
	}
	for id, retries := range map[string]int{"j000002-cd": 2, "j000003-ef": 1} {
		f := jobs[id]
		if f.State != StateFailed || f.Retries != retries || f.Error != "bust" {
			t.Fatalf("failed job %s: state %s retries %d error %q, want failed/%d/bust",
				id, f.State, f.Retries, f.Error, retries)
		}
	}
	if c := jobs["j000004-01"]; c.State != StateCanceled || c.FinishedUnixNS != 18 {
		t.Fatalf("canceled job: state %s finished %d", c.State, c.FinishedUnixNS)
	}
}

// TestReplayMatchesLive drives a job that fails once and then succeeds, one
// that runs out of retries, one canceled while queued and a cache hit, and
// requires the journal's replay to rebuild each record exactly as the
// running daemon holds it.
func TestReplayMatchesLive(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	s := newTestServer(t, dir, func(c *Config) {
		c.MaxRetries = 1
		c.BeforeAttempt = func(id string, attempt int) error {
			switch jobSeq(id) {
			case 1: // fails once, holding the worker until job 3 is canceled
				if attempt == 1 {
					<-gate
					return fmt.Errorf("injected failure")
				}
			case 2:
				return fmt.Errorf("injected permanent failure")
			}
			return nil
		}
	})
	defer s.Drain()
	other := smallSpec()
	other.Seed = 8
	retried, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	failed, err := s.Submit(other)
	if err != nil {
		t.Fatal(err)
	}
	canceled, err := s.Submit(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(canceled.ID); err != nil {
		t.Fatal(err)
	}
	close(gate)
	waitJob(t, s, retried.ID, StateDone)
	waitJob(t, s, failed.ID, StateFailed)
	waitJob(t, s, canceled.ID, StateCanceled)
	hit, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if v := waitJob(t, s, hit.ID, StateDone); !v.CacheHit {
		t.Fatal("resubmission did not hit the cache")
	}
	s.Drain()

	jobs, order, torn, err := replayJournal(dir)
	if err != nil || torn {
		t.Fatalf("replay: torn=%v err=%v", torn, err)
	}
	if !reflect.DeepEqual(order, s.order) {
		t.Fatalf("replayed order %v, live %v", order, s.order)
	}
	for _, id := range s.order {
		if live, replayed := s.jobs[id].jobRecord, jobs[id].jobRecord; !reflect.DeepEqual(live, replayed) {
			t.Errorf("job %s:\nlive     %+v\nreplayed %+v", id, live, replayed)
		}
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
	var every []byte
	for _, ev := range everyKind() {
		b, err := json.Marshal(ev)
		if err != nil {
			f.Fatal(err)
		}
		every = append(append(every, b...), '\n')
	}
	f.Add(every)
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
