package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"spacesim/internal/job"
	"spacesim/internal/obs"
	"spacesim/internal/obs/ledger"
)

// smallSpec is the cheapest job that still exercises checkpoints: two
// ranks, two steps, a checkpoint after every step.
func smallSpec() job.Spec {
	sp := job.Defaults
	sp.N, sp.Ranks, sp.Steps, sp.CheckpointEvery, sp.Seed = 300, 2, 2, 1, 7
	return sp
}

// newTestServer opens a server on dir with fast test timings; mut adjusts
// the config before New.
func newTestServer(t testing.TB, dir string, mut func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Dir: dir, Workers: 1,
		RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
		WatchdogEvery: 5 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitJob polls until the job reaches a terminal state (or want, if given)
// and returns its view.
func waitJob(t testing.TB, s *Server, id, want string) jobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		j, ok := s.jobs[id]
		if !ok {
			s.mu.Unlock()
			t.Fatalf("job %s vanished", id)
		}
		v := j.view(false)
		s.mu.Unlock()
		if v.State == want {
			return v
		}
		switch v.State {
		case StateDone, StateFailed, StateCanceled:
			t.Fatalf("job %s settled as %s (error %q), want %s", id, v.State, v.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return jobView{}
}

// BenchmarkCachedBurst submits MaxQueue jobs of one cached spec while a
// client polls GET /jobs, and reports the mean Submit latency and the
// median poll latency: status traffic against a burst of cache hits, each
// of which goes submit → start → done within about a millisecond.
func BenchmarkCachedBurst(b *testing.B) {
	runs, err := ledger.Open(filepath.Join(b.TempDir(), "runs"))
	if err != nil {
		b.Fatal(err)
	}
	spec := smallSpec()
	spec.Steps = 1
	withRuns := func(c *Config) { c.Ledger, c.Workers = runs, 2 }
	seed := newTestServer(b, b.TempDir(), withRuns)
	v, err := seed.Submit(spec)
	if err != nil {
		b.Fatal(err)
	}
	waitJob(b, seed, v.ID, StateDone)
	seed.Drain()
	b.ResetTimer()
	var submit time.Duration
	var submits int
	var polls []time.Duration
	for i := 0; i < b.N; i++ {
		s := newTestServer(b, b.TempDir(), withRuns)
		h := s.Handler()
		stop, got := make(chan struct{}), make(chan []time.Duration)
		go func() {
			var lat []time.Duration
			for {
				select {
				case <-stop:
					got <- lat
					return
				default:
				}
				t0 := time.Now()
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/jobs", nil))
				lat = append(lat, time.Since(t0))
			}
		}()
		var ids []string
		for k := 0; k < s.cfg.MaxQueue; k++ {
			t0 := time.Now()
			v, err := s.Submit(spec)
			submit += time.Since(t0)
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, v.ID)
		}
		submits += len(ids)
		for _, id := range ids {
			waitJob(b, s, id, StateDone)
		}
		close(stop)
		polls = append(polls, <-got...)
		s.Drain()
	}
	sort.Slice(polls, func(i, k int) bool { return polls[i] < polls[k] })
	b.ReportMetric(float64(submit.Nanoseconds())/1e3/float64(submits), "submit-µs")
	b.ReportMetric(float64(polls[len(polls)/2].Nanoseconds())/1e3, "poll-p50-µs")
}

// artifact decodes the stored artifact of a config digest.
func (s *Server) artifact(configDigest string) (*Artifact, bool) {
	data, _, err := s.artifactBytes(configDigest)
	var a Artifact
	if err != nil || json.Unmarshal(data, &a) != nil {
		return nil, false
	}
	return &a, true
}

func TestSubmitComputesArtifact(t *testing.T) {
	s := newTestServer(t, t.TempDir(), nil)
	defer s.Drain()
	v, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	got := waitJob(t, s, v.ID, StateDone)
	if got.ResultDigest == "" {
		t.Fatal("done job has no result digest")
	}
	if got.CacheHit {
		t.Fatal("first computation marked as cache hit")
	}
	a, ok := s.artifact(got.ConfigDigest)
	if !ok {
		t.Fatal("no cached artifact for the completed job")
	}
	if a.ResultDigest != got.ResultDigest {
		t.Fatalf("artifact digest %s != job digest %s", a.ResultDigest, got.ResultDigest)
	}
	if len(a.Bodies) != 300 || len(a.EnergyHistory) != 3 {
		t.Fatalf("artifact shape: %d bodies, %d energy records", len(a.Bodies), len(a.EnergyHistory))
	}
	if job.ResultDigest(a.Bodies, a.EnergyHistory) != a.ResultDigest {
		t.Fatal("artifact result digest does not re-verify")
	}
	// The spent checkpoints are cleaned up once the job completes.
	if _, err := os.Stat(s.jobDir(v.ID)); !os.IsNotExist(err) {
		t.Fatalf("checkpoint dir survived completion: %v", err)
	}
}

func TestCacheHitAndNoCacheRecompute(t *testing.T) {
	s := newTestServer(t, t.TempDir(), nil)
	defer s.Drain()
	first, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	v1 := waitJob(t, s, first.ID, StateDone)

	second, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	v2 := waitJob(t, s, second.ID, StateDone)
	if !v2.CacheHit {
		t.Fatal("duplicate submission did not hit the cache")
	}
	if v2.ResultDigest != v1.ResultDigest {
		t.Fatalf("cache returned digest %s, computed %s", v2.ResultDigest, v1.ResultDigest)
	}
	if n := s.m.cacheHits.Value(); n != 1 {
		t.Fatalf("cache_hits = %d, want 1", n)
	}

	// no_cache forces a recompute of the same configuration — and
	// determinism means it must land on the identical result digest.
	spec := smallSpec()
	spec.NoCache = true
	third, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v3 := waitJob(t, s, third.ID, StateDone)
	if v3.CacheHit {
		t.Fatal("no_cache submission hit the cache")
	}
	if v3.ResultDigest != v1.ResultDigest {
		t.Fatalf("recompute digest %s differs from original %s", v3.ResultDigest, v1.ResultDigest)
	}
	if n := s.m.cacheHits.Value(); n != 1 {
		t.Fatalf("cache_hits moved to %d on a no_cache run", n)
	}
	if v1.ConfigDigest != v3.ConfigDigest {
		t.Fatal("no_cache changed the config digest")
	}
}

func TestOverloadRejectedWith429(t *testing.T) {
	// The first job is held at the start of its attempt until the test is
	// over, so it is unfinished when the second POST is answered however
	// fast the host runs a simulation.
	release := make(chan struct{})
	s := newTestServer(t, t.TempDir(), func(c *Config) {
		c.Workers = 1
		c.MaxQueue = 1
		c.BeforeAttempt = func(string, int) error { <-release; return nil }
	})
	defer s.Drain()
	defer close(release) // before Drain, which waits for the attempt
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(smallSpec())
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if n := s.m.rejected.Value(); n != 1 {
		t.Fatalf("rejected_overload = %d, want 1", n)
	}
}

func TestRetryBackoffThenSuccess(t *testing.T) {
	failures := 2
	s := newTestServer(t, t.TempDir(), func(c *Config) {
		c.MaxRetries = 3
		c.BeforeAttempt = func(id string, attempt int) error {
			if attempt <= failures {
				return fmt.Errorf("injected failure on attempt %d", attempt)
			}
			return nil
		}
	})
	defer s.Drain()
	v, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	got := waitJob(t, s, v.ID, StateDone)
	if got.Retries != failures {
		t.Fatalf("retries = %d, want %d", got.Retries, failures)
	}
	if got.Attempts != failures+1 {
		t.Fatalf("attempts = %d, want %d", got.Attempts, failures+1)
	}
	if n := s.m.retries.Value(); n != int64(failures) {
		t.Fatalf("retries counter = %d, want %d", n, failures)
	}
}

func TestRetriesExhaustedFailsJob(t *testing.T) {
	s := newTestServer(t, t.TempDir(), func(c *Config) {
		c.MaxRetries = 1
		c.BeforeAttempt = func(string, int) error {
			return fmt.Errorf("injected permanent failure")
		}
	})
	defer s.Drain()
	v, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	got := waitJob(t, s, v.ID, StateFailed)
	if !strings.Contains(got.Error, "injected permanent failure") {
		t.Fatalf("failed job error = %q", got.Error)
	}
	if n := s.m.failed.Value(); n != 1 {
		t.Fatalf("jobs_failed = %d, want 1", n)
	}
}

func TestWatchdogTimesOutStuckJob(t *testing.T) {
	s := newTestServer(t, t.TempDir(), func(c *Config) {
		c.MinDeadline = time.Millisecond
		c.WatchdogEvery = time.Millisecond
		c.DeadlineFactor = -1 // MinDeadline alone: everything is "stuck"
		c.MaxRetries = 0
	})
	defer s.Drain()
	spec := smallSpec()
	spec.N = 2000
	spec.Steps = 4
	v, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitJob(t, s, v.ID, StateFailed)
	if !strings.Contains(got.Error, "watchdog") {
		t.Fatalf("failed job error = %q, want a watchdog deadline", got.Error)
	}
	if n := s.m.watchdog.Value(); n < 1 {
		t.Fatalf("watchdog_timeouts = %d, want >= 1", n)
	}
}

// A running job's view carries its current segment's progress: the step
// fraction, and the ETA once a step has completed.
func TestJobViewCarriesProgress(t *testing.T) {
	j := &Job{jobRecord: jobRecord{ID: "j1", State: StateRunning}}
	if v := j.view(true); v.Progress != nil {
		t.Fatalf("progress before the first segment: %+v", v.Progress)
	}
	o := obs.New(false)
	j.seg.Store(o)
	p := o.Progress()
	p.SetTotal(4)
	time.Sleep(time.Millisecond)
	p.StepDone(1, 0.5)
	v := j.view(true)
	if v.Progress == nil || v.Progress.StepFraction != 0.25 || v.Progress.ETASec <= 0 {
		t.Fatalf("running view progress %+v, want fraction 0.25 and an ETA", v.Progress)
	}
	if j.view(false).Progress != nil {
		t.Fatal("list view carries progress")
	}
	j.State = StateDone
	if j.view(true).Progress != nil {
		t.Fatal("finished job carries progress")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := newTestServer(t, t.TempDir(), nil)
	defer s.Drain()
	slow := smallSpec()
	slow.N = 2000
	slow.Steps = 6
	running, err := s.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	got := waitJob(t, s, queued.ID, StateCanceled)
	if got.State != StateCanceled {
		t.Fatalf("state = %s", got.State)
	}
	waitJob(t, s, running.ID, StateDone)
	if n := s.m.canceled.Value(); n != 1 {
		t.Fatalf("jobs_canceled = %d, want 1", n)
	}
}

func TestDrainRequeuesAndRestartResumesBitIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec()
	spec.N = 1200
	spec.Steps = 8

	s1 := newTestServer(t, dir, nil)
	v, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first checkpoint stripe so the drain has something to
	// resume from, then drain mid-run.
	waitForCheckpoint(t, s1.jobDir(v.ID))
	s1.Drain()
	s1.mu.Lock()
	state := s1.jobs[v.ID].State
	s1.mu.Unlock()
	if state != StateQueued {
		t.Fatalf("after drain, job is %s, want %s", state, StateQueued)
	}
	if n := s1.m.drainRequeues.Value(); n < 1 {
		t.Fatalf("drain_requeues = %d, want >= 1", n)
	}

	// A new daemon over the same state dir replays the journal and
	// finishes the job from its checkpoint.
	s2 := newTestServer(t, dir, nil)
	defer s2.Drain()
	if n := s2.m.replayed.Value(); n != 1 {
		t.Fatalf("replayed_jobs = %d, want 1", n)
	}
	got := waitJob(t, s2, v.ID, StateDone)
	if got.ResumedStep < 1 {
		t.Fatalf("resumed_step = %d, want >= 1 (resume, not recompute)", got.ResumedStep)
	}

	// Bit-identity: an uninterrupted run of the same spec on a fresh
	// server must produce the same result digest.
	s3 := newTestServer(t, t.TempDir(), nil)
	defer s3.Drain()
	ref, err := s3.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	clean := waitJob(t, s3, ref.ID, StateDone)
	if clean.ResumedStep != 0 {
		t.Fatalf("reference run resumed from %d", clean.ResumedStep)
	}
	if clean.ResultDigest != got.ResultDigest {
		t.Fatalf("resumed digest %s != clean digest %s", got.ResultDigest, clean.ResultDigest)
	}
}

// waitForCheckpoint blocks until a completed checkpoint stripe exists under
// dir.
func waitForCheckpoint(t *testing.T, dir string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		ents, err := os.ReadDir(dir)
		if err == nil {
			for _, e := range ents {
				if strings.HasPrefix(e.Name(), "ck-") {
					return
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("no checkpoint appeared under %s", dir)
}

func TestHTTPJobLifecycle(t *testing.T) {
	st, err := ledger.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, t.TempDir(), func(c *Config) { c.Ledger = st })
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(smallSpec())
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || v.ID == "" {
		t.Fatalf("submit: %d, id %q", resp.StatusCode, v.ID)
	}
	waitJob(t, s, v.ID, StateDone)

	get := func(path string) []byte {
		t.Helper()
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, r.StatusCode)
		}
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		return buf.Bytes()
	}
	var list []jobView
	if err := json.Unmarshal(get("/jobs"), &list); err != nil || len(list) != 1 {
		t.Fatalf("list: %v (%d jobs)", err, len(list))
	}
	var one jobView
	if err := json.Unmarshal(get("/jobs/"+v.ID), &one); err != nil || one.State != StateDone {
		t.Fatalf("get one: %v, state %s", err, one.State)
	}
	var art Artifact
	if err := json.Unmarshal(get("/jobs/"+v.ID+"/artifact"), &art); err != nil {
		t.Fatal(err)
	}
	if art.ResultDigest != one.ResultDigest {
		t.Fatal("artifact digest mismatch over HTTP")
	}
	// The daemon metrics are exposed in Prometheus text form.
	if !strings.Contains(string(get("/metrics")), "spacesim_serve_jobs_completed 1") {
		t.Fatal("daemon /metrics missing serve.jobs_completed")
	}
	// The computed job's ledger record heads the mounted /runs page; it is
	// a result, not a measurement, so the group has no run to judge.
	if runs := string(get("/runs")); !strings.Contains(runs, "spacesim run  host ") ||
		!strings.Contains(runs, " 1 runs (no run with metrics)") {
		t.Fatalf("daemon /runs lacks the job's group header:\n%s", runs)
	}
}

// Each spec differs from a valid one in one field, and each is refused:
// by the daemon's admission bounds or by the spec's own rule. A zero is
// judged as given, never replaced by a default.
func TestSpecValidation(t *testing.T) {
	s := newTestServer(t, t.TempDir(), nil)
	defer s.Drain()
	for _, mut := range []func(*job.Spec){
		func(sp *job.Spec) { sp.Scenario = "warpdrive" },
		func(sp *job.Spec) { sp.Scenario = "" },
		func(sp *job.Spec) { sp.Ranks = 500 },
		func(sp *job.Spec) { sp.Ranks = 0 },
		func(sp *job.Spec) { sp.N = 4 },
		func(sp *job.Spec) { sp.N = 0 },
		func(sp *job.Spec) { sp.Steps = -1 },
		func(sp *job.Spec) { sp.Steps = 0 },
		func(sp *job.Spec) { sp.CheckpointEvery = 0 },
		func(sp *job.Spec) { sp.DT = -0.1 },
		func(sp *job.Spec) { sp.Theta = 0 },
		func(sp *job.Spec) { sp.Theta = math.NaN() },
		func(sp *job.Spec) { sp.Eps = math.NaN() },
		func(sp *job.Spec) { sp.DT = math.NaN() },
		func(sp *job.Spec) { sp.Theta = math.Inf(1) },
		func(sp *job.Spec) { sp.Eps = -1 },
	} {
		spec := smallSpec()
		mut(&spec)
		if _, err := s.Submit(spec); err == nil {
			t.Fatalf("spec %+v was accepted", spec)
		}
	}
	if n := s.m.submitted.Value(); n != 0 {
		t.Fatalf("invalid specs counted as submissions: %d", n)
	}
}

// Clients written against the two-runtime daemon still send "engine", and
// older ones "engine_workers". The keys select nothing now and are dropped
// like any unknown key — whatever their values, the submission is accepted,
// not a 400, and keyed like one without.
func TestSubmittedEngineFieldIgnored(t *testing.T) {
	s := newTestServer(t, t.TempDir(), nil)
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, engine := range []string{"goroutine", "event", "threads"} {
		body := fmt.Sprintf(`{"n":300,"ranks":2,"steps":2,"checkpoint_every":1,"seed":7,"engine_workers":1,"engine":%q}`, engine)
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var v jobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted || err != nil {
			t.Fatalf("engine=%q: status %d (decode: %v), want 202", engine, resp.StatusCode, err)
		}
		if want := smallSpec().Digest(); v.ConfigDigest != want {
			t.Fatalf("engine=%q: config digest %s, without the key %s", engine, v.ConfigDigest, want)
		}
		waitJob(t, s, v.ID, StateDone)
	}
}

func TestConfigDigestIgnoresNoCache(t *testing.T) {
	a := smallSpec()
	b := smallSpec()
	b.NoCache = true
	if a.Digest() != b.Digest() {
		t.Fatal("no_cache leaked into the config digest")
	}
	c := smallSpec()
	c.Seed = 8
	if a.Digest() == c.Digest() {
		t.Fatal("different seeds share a config digest")
	}
}
