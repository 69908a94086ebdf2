// Package serve is the simulation-as-a-service layer: a crash-safe job
// server over the deterministic core. Clients POST job specs (scenario, N,
// ranks, steps, faults, seed); the server persists every state
// transition to an append-only journal, executes jobs on a bounded worker
// pool, and keeps each result once, as the JOB.json blob of a run-ledger
// record keyed by the config digest — the same invocation never simulates
// twice.
//
// Robustness is the point, and it is built from the determinism the rest of
// the repo already pins:
//
//   - kill -9 the daemon and restart it: the journal replays, unfinished
//     jobs requeue, and each resumes from its newest intact checkpoint via
//     core.RunRecovered — the finished artifact is bit-identical to an
//     uninterrupted run (the energy sidecar makes checkpoints
//     self-contained across processes).
//   - a stuck job trips a watchdog whose deadline comes from the job's own
//     progress ETA, is interrupted cooperatively at a step boundary,
//     and retries with exponential backoff and deterministic jitter until
//     the retry budget is spent.
//   - a drain (SIGTERM) interrupts running jobs at the next step boundary —
//     checkpointed and requeued — and the next start finishes them.
//   - a full queue degrades gracefully: 429 with a Retry-After estimated
//     from recent job durations, never an unbounded backlog.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spacesim/internal/core"
	"spacesim/internal/faults"
	"spacesim/internal/job"
	"spacesim/internal/obs"
	"spacesim/internal/obs/ledger"
	"spacesim/internal/obs/live"
)

// Config sizes and tunes a Server. Zero values take defaults.
type Config struct {
	// Dir is the state directory: jobs.jsonl journal, jobs/<id>/
	// checkpoint directories and, when Ledger is nil, the runs/ ledger
	// (default .spacesimd).
	Dir string
	// Workers bounds concurrent job executions (default 2).
	Workers int
	// MaxQueue bounds admitted-but-unfinished jobs; submissions beyond it
	// get 429 + Retry-After (default 64).
	MaxQueue int
	// MaxRetries bounds retry cycles per job; 0 (the default) fails a job
	// on its first bad attempt.
	MaxRetries int
	// RetryBase and RetryMax shape the exponential backoff between
	// attempts: base·2^(retry-1) plus deterministic jitter, capped at max
	// (defaults 1s, 30s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// MinDeadline is the watchdog floor every attempt gets, and the whole
	// deadline until the job's own ETA is known (default 60s).
	MinDeadline time.Duration
	// DeadlineFactor scales the frozen first ETA estimate into the
	// attempt deadline: allowed = max(MinDeadline, factor·(elapsed+ETA))
	// (default 4; negative disables the ETA term — MinDeadline alone
	// applies).
	DeadlineFactor float64
	// WatchdogEvery is the deadline poll (default 250ms).
	WatchdogEvery time.Duration
	// Ledger is the result store: each computed job appends one record
	// carrying its artifact, and a submission of a config digest it holds
	// is answered from it. Nil means a ledger under Dir/runs. It is
	// mounted at /runs.
	Ledger *ledger.Store
	// BeforeAttempt, when non-nil, runs at the start of every execution
	// attempt; an error fails the attempt. Test hook for the retry path.
	BeforeAttempt func(id string, attempt int) error
}

func (c Config) withDefaults() Config {
	if c.Dir == "" {
		c.Dir = ".spacesimd"
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = time.Second
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 30 * time.Second
	}
	if c.MinDeadline <= 0 {
		c.MinDeadline = 60 * time.Second
	}
	if c.DeadlineFactor < 0 {
		c.DeadlineFactor = 0
	} else if c.DeadlineFactor == 0 {
		c.DeadlineFactor = 4
	}
	if c.WatchdogEvery <= 0 {
		c.WatchdogEvery = 250 * time.Millisecond
	}
	return c
}

// metrics are the daemon-level obs handles, exposed at /metrics.
type metrics struct {
	submitted, completed, failed, canceled *obs.Counter
	cacheHits, retries, rejected           *obs.Counter
	replayed, watchdog, drainRequeues      *obs.Counter
	queueDepth, running                    *obs.Gauge
}

func newMetrics(o *obs.Obs) *metrics {
	r := o.Reg
	return &metrics{
		submitted:     r.Counter("serve.jobs_submitted"),
		completed:     r.Counter("serve.jobs_completed"),
		failed:        r.Counter("serve.jobs_failed"),
		canceled:      r.Counter("serve.jobs_canceled"),
		cacheHits:     r.Counter("serve.cache_hits"),
		retries:       r.Counter("serve.retries"),
		rejected:      r.Counter("serve.rejected_overload"),
		replayed:      r.Counter("serve.replayed_jobs"),
		watchdog:      r.Counter("serve.watchdog_timeouts"),
		drainRequeues: r.Counter("serve.drain_requeues"),
		queueDepth:    r.Gauge("serve.queue_depth"),
		running:       r.Gauge("serve.jobs_running"),
	}
}

// Server is a running job daemon. Open it with New, mount Handler() on an
// http.Server, and Drain() to stop.
type Server struct {
	cfg  Config
	obs  *obs.Obs
	m    *metrics
	runs *ledger.Store

	// mu guards jobs (and every job's record), order, seq, ewmaSec and
	// artifacts, and orders the appends to journal, which stays open for
	// the server's life (so a cancel after Drain is journaled too).
	mu      sync.Mutex
	journal *os.File
	// artifacts maps a config digest to where its artifact is in runs.
	artifacts map[string]stored
	jobs      map[string]*Job
	order     []string
	seq       int
	// ewmaSec tracks recent computed-job durations for Retry-After.
	ewmaSec float64

	queue    chan string
	stop     chan struct{}
	wg       sync.WaitGroup
	draining atomic.Bool
	drainOne sync.Once
}

// New opens the state directory and the result store, replays the journal
// (requeuing every job that was queued, in backoff, or running when the
// previous process died), and starts the worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "jobs"), 0o755); err != nil {
		return nil, err
	}
	jobs, order, torn, err := replayJournal(cfg.Dir)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.Dir, JournalFile)
	if torn {
		fmt.Fprintf(os.Stderr, "spacesimd: %s: skipping a torn record (crash mid-append)\n", path)
	}
	runs := cfg.Ledger
	if runs == nil {
		if runs, err = ledger.Open(filepath.Join(cfg.Dir, "runs")); err != nil {
			return nil, err
		}
	}
	jnl, err := ledger.OpenJSONL(path)
	if err != nil {
		return nil, err
	}
	// The newest record of a digest names its artifact. An unreadable
	// index leaves the map empty: every lookup is a miss and recomputes.
	artifacts := map[string]stored{}
	recs, err := runs.Records()
	if err != nil {
		fmt.Fprintf(os.Stderr, "spacesimd: %v: starting with no stored results\n", err)
	}
	for _, r := range recs {
		if d, ok := r.Artifacts[artifactBlob]; ok {
			artifacts[r.ConfigDigest] = stored{blob: d}
		}
	}
	o := obs.New(false)
	ledger.Prov().Stamp(o.Reg)
	s := &Server{
		cfg: cfg, obs: o, m: newMetrics(o),
		journal: jnl, runs: runs, artifacts: artifacts,
		jobs: jobs, order: order,
		queue: make(chan string, 4096),
		stop:  make(chan struct{}),
	}
	s.mu.Lock()
	for _, id := range order {
		s.seq = max(s.seq, jobSeq(id))
		switch j := jobs[id]; j.State {
		case StateQueued, StateRunning, StateBackoff:
			// The previous process died holding this job; a running job's
			// partial progress survives as checkpoints and resumes.
			s.m.replayed.Inc()
			s.record(j, event{Ev: evRequeue})
			s.enqueue(id)
		}
	}
	s.mu.Unlock()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Obs returns the daemon's observation handle (the serve.* metrics).
func (s *Server) Obs() *obs.Obs { return s.obs }

// Drain stops the server gracefully: running jobs are interrupted at their
// next step boundary (checkpointed and requeued in the journal) and workers
// exit. New submissions get 503 from the moment the drain starts.
// Idempotent; returns when everything has stopped.
func (s *Server) Drain() {
	s.drainOne.Do(func() {
		s.draining.Store(true)
		s.mu.Lock()
		for _, j := range s.jobs {
			if j.State == StateRunning {
				j.requestInterrupt("drain")
			}
		}
		s.mu.Unlock()
		close(s.stop)
	})
	s.wg.Wait()
}

// record moves j by one event: it stamps the event with j's ID and the
// clock (unless the caller read the clock already, as a backoff does to
// time its retry), applies it and appends it to the journal. A submit names
// its new job itself. Called with s.mu held, so the journal's order is the
// order the table moved in. A failed append is reported on stderr and
// returned, but the record moves anyway: only Submit acts on the error (it
// refuses the job); every other caller already does what the event says.
func (s *Server) record(j *Job, ev event) error {
	if ev.ID == "" {
		ev.ID = j.ID
	}
	if ev.TimeUnixNS == 0 {
		ev.TimeUnixNS = time.Now().UnixNano()
	}
	j.apply(ev)
	err := ledger.AppendJSONL(s.journal, ev)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spacesimd: journal: %s %s: %v\n", ev.Ev, ev.ID, err)
	}
	return err
}

func (s *Server) enqueue(id string) {
	select {
	case s.queue <- id:
		s.m.queueDepth.Add(1)
	default:
		// The channel is sized far beyond MaxQueue; overflow means
		// admission control is broken, not that the client erred.
		panic("serve: queue channel overflow")
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case id := <-s.queue:
			s.m.queueDepth.Add(-1)
			s.runJob(id)
		}
	}
}

// pendingLocked counts admitted-but-unfinished jobs (the admission-control
// quantity). Called with s.mu held.
func (s *Server) pendingLocked() int {
	n := 0
	for _, j := range s.jobs {
		switch j.State {
		case StateQueued, StateRunning, StateBackoff:
			n++
		}
	}
	return n
}

// Submit admits one job of the spec as given (a POST body is read onto
// job.Defaults first, job.DecodeSpec): the job is built from its submit
// event and joins the table and the queue only once the journal holds that
// event, so a crash never loses an admitted job.
func (s *Server) Submit(spec job.Spec) (jobView, error) {
	if err := admit(spec); err != nil {
		return jobView{}, err
	}
	tag := spec.Digest()[:8]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pendingLocked() >= s.cfg.MaxQueue {
		s.m.rejected.Inc()
		return jobView{}, errOverload{retryAfterSec: s.retryAfterSec()}
	}
	s.seq++
	j, id := &Job{}, fmt.Sprintf("j%06d-%s", s.seq, tag)
	if err := s.record(j, event{Ev: evSubmit, ID: id, Spec: &spec}); err != nil {
		return jobView{}, fmt.Errorf("serve: journal: %w", err)
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.m.submitted.Inc()
	s.enqueue(id)
	return j.view(false), nil
}

// admit bounds a spec to what a multi-tenant daemon runs (the
// tenancy policy: n in [16, 10^6], steps in [1, 10^4]), then holds it to the
// spec's own rule.
func admit(spec job.Spec) error {
	if spec.N < 16 || spec.N > 1_000_000 {
		return fmt.Errorf("serve: n %d out of range [16, 1000000]", spec.N)
	}
	if spec.Steps < 1 || spec.Steps > 10_000 {
		return fmt.Errorf("serve: steps %d out of range [1, 10000]", spec.Steps)
	}
	return spec.Validate()
}

// retryAfterSec estimates how long a rejected client should wait: the
// recent per-job duration (EWMA), at least a second. Called with s.mu held.
func (s *Server) retryAfterSec() int {
	return max(1, int(math.Ceil(s.ewmaSec)))
}

// errOverload is the admission-control rejection, carrying the Retry-After
// hint.
type errOverload struct{ retryAfterSec int }

func (e errOverload) Error() string {
	return fmt.Sprintf("serve: queue full, retry in ~%ds", e.retryAfterSec)
}

// Cancel stops a job: queued or backing-off jobs cancel immediately,
// running jobs are interrupted at the next step boundary.
func (s *Server) Cancel(id string) (jobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return jobView{}, fmt.Errorf("serve: no job %s", id)
	}
	switch j.State {
	case StateQueued, StateBackoff:
		s.m.canceled.Inc()
		s.record(j, event{Ev: evCancel})
	case StateRunning:
		j.requestInterrupt("cancel")
	}
	return j.view(false), nil
}

// runJob executes one dequeued job to an outcome: done (computed or cache
// hit), requeued (drain), canceled, backoff, or failed.
func (s *Server) runJob(id string) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok || j.State != StateQueued {
		s.mu.Unlock()
		return // canceled (or otherwise settled) while waiting in the queue
	}
	if s.draining.Load() {
		s.m.drainRequeues.Inc()
		s.record(j, event{Ev: evRequeue})
		s.mu.Unlock()
		return
	}
	j.intr.Store(nil)
	s.record(j, event{Ev: evStart, Attempts: j.Attempts + 1})
	attempt, spec := j.Attempts, j.Spec
	s.mu.Unlock()

	s.m.running.Add(1)
	defer s.m.running.Add(-1)
	defer j.seg.Store(nil)

	if s.cfg.BeforeAttempt != nil {
		if err := s.cfg.BeforeAttempt(id, attempt); err != nil {
			s.attemptFailed(j, err.Error())
			return
		}
	}
	if !spec.NoCache {
		if result, ok := s.cachedResult(j.ConfigDigest); ok {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.m.cacheHits.Inc()
			s.m.completed.Inc()
			s.record(j, event{Ev: evDone, ResultDigest: result, CacheHit: true})
			return
		}
	}

	res, st, err := s.execute(j, spec)
	if err != nil {
		s.attemptFailed(j, err.Error())
		return
	}
	if res.Interrupted {
		switch reason := j.interruptReason(); reason {
		case "drain":
			s.mu.Lock()
			s.m.drainRequeues.Inc()
			s.record(j, event{Ev: evRequeue})
			s.mu.Unlock()
		case "cancel":
			s.mu.Lock()
			s.m.canceled.Inc()
			s.record(j, event{Ev: evCancel})
			s.mu.Unlock()
		default: // watchdog (or an unattributed interrupt): retryable
			if reason == "" {
				reason = "interrupted without reason"
			}
			s.attemptFailed(j, reason)
		}
		return
	}

	resumed := st.ResumedFromStep
	art := buildArtifact(spec, res, resumed, attempt)
	if err := s.storeArtifact(art); err != nil {
		s.attemptFailed(j, fmt.Sprintf("artifact write: %v", err))
		return
	}
	// The artifact is durable, so the checkpoints are spent. They go before
	// the job reads as done: a client that sees "done" sees no job directory.
	os.RemoveAll(s.jobDir(id))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m.completed.Inc()
	s.record(j, event{Ev: evDone, ResultDigest: art.ResultDigest, ResumedStep: resumed})
	dur := float64(j.FinishedUnixNS-j.StartedUnixNS) / 1e9
	if s.ewmaSec <= 0 {
		s.ewmaSec = dur
	} else {
		s.ewmaSec = 0.3*dur + 0.7*s.ewmaSec
	}
}

// jobDir is the per-job checkpoint directory.
func (s *Server) jobDir(id string) string { return filepath.Join(s.cfg.Dir, "jobs", id) }

// execute runs one attempt of a job: it resumes from the job directory's
// checkpoints, checkpoints there on cadence, polls the job's interrupt word
// at every step boundary, and runs under the watchdog once any fault probe
// is done.
func (s *Server) execute(j *Job, spec job.Spec) (core.Result, faults.Recovery, error) {
	wdStop := make(chan struct{})
	var wdWg sync.WaitGroup
	defer func() { close(wdStop); wdWg.Wait() }()
	return job.Execute(spec, job.Hooks{
		NewObs: func() *obs.Obs {
			o := obs.New(false)
			ledger.Prov().Stamp(o.Reg)
			j.seg.Store(o)
			return o
		},
		Interrupt:    func() bool { return j.intr.Load() != nil },
		Dir:          s.jobDir(j.ID),
		GatherBodies: true,
		Started: func(faults.Schedule) {
			wdWg.Add(1)
			go s.watchdog(j, wdStop, &wdWg)
		},
	})
}

// watchdog enforces the attempt deadline. The estimate freezes at the first
// poll after the running segment completes a step, when its progress knows
// an ETA (elapsed + ETA at that moment); until then MinDeadline alone
// applies. On breach it requests a cooperative
// interrupt — the job checkpoints at the step boundary and stops, so the
// retry resumes rather than recomputes.
func (s *Server) watchdog(j *Job, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	t := time.NewTicker(s.cfg.WatchdogEvery)
	defer t.Stop()
	start := time.Now()
	estimate := -1.0
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			elapsed := time.Since(start).Seconds()
			if estimate < 0 {
				if p := j.seg.Load().Progress().Snapshot(); p.ETASec >= 0 {
					estimate = elapsed + p.ETASec
				}
			}
			allowed := s.cfg.MinDeadline.Seconds()
			if estimate >= 0 && s.cfg.DeadlineFactor*estimate > allowed {
				allowed = s.cfg.DeadlineFactor * estimate
			}
			if elapsed > allowed {
				s.m.watchdog.Inc()
				j.requestInterrupt(fmt.Sprintf(
					"watchdog: %.2fs elapsed exceeds %.2fs deadline", elapsed, allowed))
				return
			}
		}
	}
}

// attemptFailed moves a job to backoff (scheduling the retry) or, once the
// retry budget is spent, to failed.
func (s *Server) attemptFailed(j *Job, msg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	retry := j.Retries + 1
	if retry > s.cfg.MaxRetries {
		s.m.failed.Inc()
		s.record(j, event{Ev: evFail, Retries: retry, Error: msg})
		return
	}
	d := backoffDelay(s.cfg.RetryBase, s.cfg.RetryMax, j.ID, retry)
	now := time.Now().UnixNano()
	s.m.retries.Inc()
	s.record(j, event{Ev: evBackoff, TimeUnixNS: now, Retries: retry,
		RetryAtNS: now + d.Nanoseconds(), Error: msg})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		select {
		case <-s.stop:
			// Dying mid-backoff is fine: the journal holds the job in
			// backoff, which the next start requeues.
			return
		case <-time.After(d):
			s.mu.Lock()
			defer s.mu.Unlock()
			if j.State == StateBackoff { // not canceled while waiting
				s.record(j, event{Ev: evRequeue})
				s.enqueue(j.ID)
			}
		}
	}()
}

// backoffDelay is base·2^(retry-1) plus deterministic jitter (an FNV hash
// of job ID and retry number spread over [0, base)), capped at max. The
// jitter de-synchronizes retry herds without a random source, so a replayed
// schedule backs off identically.
func backoffDelay(base, max time.Duration, id string, retry int) time.Duration {
	d := base
	for i := 1; i < retry && d < max; i++ {
		d *= 2
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", id, retry)
	d += time.Duration(h.Sum64() % uint64(base))
	if d > max {
		d = max
	}
	return d
}

// Handler returns the daemon's HTTP surface:
//
//	POST   /jobs            submit a job.Spec (absent keys keep job.Defaults);
//	                        202 + job, 429 when full, 503 while draining
//	GET    /jobs            all jobs, submission order
//	GET    /jobs/{id}       one job (+ its step fraction, rate and ETA
//	                        while running)
//	GET    /jobs/{id}/artifact   the result artifact (its ledger blob)
//	DELETE /jobs/{id}       cancel
//	/metrics, /metrics.json, /progress.json, /debug/pprof/  (live
//	        exposition over the daemon registry, which runs no steps of
//	        its own), /runs (the result store's ledger text view)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJob)
	mux.Handle("/", live.Handler(s.Obs, s.runs.Handler()))
	return mux
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		spec, err := job.DecodeSpec(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		v, err := s.Submit(spec)
		if err != nil {
			var full errOverload
			if errors.As(err, &full) {
				w.Header().Set("Retry-After", fmt.Sprint(full.retryAfterSec))
				http.Error(w, full.Error(), http.StatusTooManyRequests)
				return
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		writeJSON(w, v)
	case http.MethodGet:
		s.mu.Lock()
		views := make([]jobView, 0, len(s.order))
		for _, id := range s.order {
			views = append(views, s.jobs[id].view(false))
		}
		s.mu.Unlock()
		sort.SliceStable(views, func(i, k int) bool { return views[i].ID < views[k].ID })
		writeJSON(w, views)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, tail, _ := strings.Cut(rest, "/")
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		http.NotFound(w, r)
		return
	}
	v := j.view(true)
	s.mu.Unlock()

	switch {
	case tail == "artifact" && r.Method == http.MethodGet:
		if v.State != StateDone {
			http.Error(w, fmt.Sprintf("job %s is %s, not done", id, v.State), http.StatusConflict)
			return
		}
		data, _, err := s.artifactBytes(v.ConfigDigest)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	case tail == "" && r.Method == http.MethodGet:
		writeJSON(w, v)
	case tail == "" && r.Method == http.MethodDelete:
		cv, err := s.Cancel(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, cv)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
