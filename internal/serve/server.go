// Package serve is the simulation-as-a-service layer: a crash-safe job
// server over the deterministic core. Clients POST job specs (scenario, N,
// ranks, steps, faults, seed); the server persists every state
// transition to an append-only journal, executes jobs on a bounded worker
// pool, and caches results content-addressed by the ledger config digest —
// the same invocation never simulates twice.
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
//     checkpointed, requeued, journal closed — and the next start finishes
//     them.
//   - a full queue degrades gracefully: 429 with a Retry-After estimated
//     from recent job durations, never an unbounded backlog.
package serve

import (
	"encoding/json"
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
	"spacesim/internal/obs"
	"spacesim/internal/obs/ledger"
	"spacesim/internal/obs/live"
)

// Config sizes and tunes a Server. Zero values take defaults.
type Config struct {
	// Dir is the state directory: jobs.jsonl journal, results/ cache,
	// jobs/<id>/ checkpoint directories (default .spacesimd).
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
	// Ledger, when non-nil, receives a run record per computed job and is
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
	cfg     Config
	obs     *obs.Obs
	m       *metrics
	journal *journal
	cache   *cache

	mu    sync.Mutex // guards jobs, order, seq, ewmaSec
	jobs  map[string]*Job
	order []string
	seq   int
	// ewmaSec tracks recent computed-job durations for Retry-After.
	ewmaSec float64

	queue    chan string
	stop     chan struct{}
	wg       sync.WaitGroup
	draining atomic.Bool
	drainOne sync.Once
}

// New opens the state directory, replays the journal (requeuing every job
// that was queued, in backoff, or running when the previous process died),
// and starts the worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "jobs"), 0o755); err != nil {
		return nil, err
	}
	jobs, order, torn, err := replayJournal(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if torn {
		fmt.Fprintf(os.Stderr, "spacesimd: %s: skipping torn trailing record (crash mid-append)\n",
			filepath.Join(cfg.Dir, JournalFile))
	}
	jnl, err := openJournal(cfg.Dir)
	if err != nil {
		return nil, err
	}
	cch, err := openCache(cfg.Dir)
	if err != nil {
		jnl.close()
		return nil, err
	}
	o := obs.New(false)
	ledger.Prov().Stamp(o.Reg)
	s := &Server{
		cfg: cfg, obs: o, m: newMetrics(o),
		journal: jnl, cache: cch,
		jobs: jobs, order: order,
		queue: make(chan string, 4096),
		stop:  make(chan struct{}),
	}
	for _, id := range order {
		if n := jobSeq(id); n > s.seq {
			s.seq = n
		}
		j := jobs[id]
		switch j.State {
		case StateQueued, StateRunning, StateBackoff:
			// The previous process died holding this job; a running job's
			// partial progress survives as checkpoints and resumes.
			j.State = StateQueued
			s.m.replayed.Inc()
			s.journal.append(event{Ev: evRequeue, ID: id})
			s.enqueue(id)
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Obs returns the daemon's observation handle (the serve.* metrics).
func (s *Server) Obs() *obs.Obs { return s.obs }

// Drain stops the server gracefully: running jobs are interrupted at their
// next step boundary (checkpointed and requeued in the journal), workers
// exit, the journal closes. New submissions get 503 from the moment the
// drain starts. Idempotent; returns when everything has stopped.
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
	s.journal.close()
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

// Submit admits one job: journal first, then the in-memory table and the
// queue, so a crash between the two replays the submission instead of
// losing it.
func (s *Server) Submit(spec JobSpec) (jobView, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return jobView{}, err
	}
	digest := spec.Digest()
	s.mu.Lock()
	if s.pendingLocked() >= s.cfg.MaxQueue {
		s.mu.Unlock()
		s.m.rejected.Inc()
		return jobView{}, errOverload{retryAfterSec: s.retryAfterSec()}
	}
	s.seq++
	id := fmt.Sprintf("j%06d-%s", s.seq, digest[:8])
	j := &Job{
		ID: id, Spec: spec, ConfigDigest: digest,
		State: StateQueued, SubmittedUnixNS: time.Now().UnixNano(),
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	if err := s.journal.append(event{Ev: evSubmit, ID: id, Spec: &spec}); err != nil {
		s.mu.Lock()
		delete(s.jobs, id)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		return jobView{}, fmt.Errorf("serve: journal: %w", err)
	}
	s.m.submitted.Inc()
	s.enqueue(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.view(false), nil
}

// retryAfterSec estimates how long a rejected client should wait: the
// recent per-job duration (EWMA), at least a second. Called with s.mu held.
func (s *Server) retryAfterSec() int {
	if s.ewmaSec <= 0 {
		return 1
	}
	n := int(math.Ceil(s.ewmaSec))
	if n < 1 {
		n = 1
	}
	return n
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
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return jobView{}, fmt.Errorf("serve: no job %s", id)
	}
	switch j.State {
	case StateQueued, StateBackoff:
		j.State = StateCanceled
		j.FinishedUnixNS = time.Now().UnixNano()
		v := j.view(false)
		s.mu.Unlock()
		s.m.canceled.Inc()
		s.journal.append(event{Ev: evCancel, ID: id})
		return v, nil
	case StateRunning:
		v := j.view(false)
		s.mu.Unlock()
		j.requestInterrupt("cancel")
		return v, nil
	default:
		defer s.mu.Unlock()
		return j.view(false), nil
	}
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
		s.mu.Unlock()
		s.m.drainRequeues.Inc()
		s.journal.append(event{Ev: evRequeue, ID: id})
		return
	}
	j.State = StateRunning
	j.Attempts++
	j.StartedUnixNS = time.Now().UnixNano()
	j.intr.Store(nil)
	attempt := j.Attempts
	spec := j.Spec
	s.mu.Unlock()

	s.m.running.Add(1)
	defer s.m.running.Add(-1)
	defer j.seg.Store(nil)
	s.journal.append(event{Ev: evStart, ID: id, Attempts: attempt})

	if s.cfg.BeforeAttempt != nil {
		if err := s.cfg.BeforeAttempt(id, attempt); err != nil {
			s.attemptFailed(j, err.Error())
			return
		}
	}
	if !spec.NoCache {
		if a, ok := s.cache.get(j.ConfigDigest); ok {
			s.mu.Lock()
			j.State = StateDone
			j.CacheHit = true
			j.ResultDigest = a.ResultDigest
			j.FinishedUnixNS = time.Now().UnixNano()
			s.mu.Unlock()
			s.m.cacheHits.Inc()
			s.m.completed.Inc()
			s.journal.append(event{Ev: evDone, ID: id, ResultDigest: a.ResultDigest, CacheHit: true})
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
			j.State = StateQueued
			s.mu.Unlock()
			s.m.drainRequeues.Inc()
			s.journal.append(event{Ev: evRequeue, ID: id})
		case "cancel":
			s.mu.Lock()
			j.State = StateCanceled
			j.FinishedUnixNS = time.Now().UnixNano()
			s.mu.Unlock()
			s.m.canceled.Inc()
			s.journal.append(event{Ev: evCancel, ID: id})
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
	if err := s.cache.put(art); err != nil {
		s.attemptFailed(j, fmt.Sprintf("artifact write: %v", err))
		return
	}
	s.appendLedger(art)
	// The artifact is durable, so the checkpoints are spent. They go before
	// the job reads as done: a client that sees "done" sees no job directory.
	os.RemoveAll(s.jobDir(id))
	now := time.Now().UnixNano()
	s.mu.Lock()
	j.State = StateDone
	j.ResultDigest = art.ResultDigest
	j.ResumedStep = resumed
	j.FinishedUnixNS = now
	dur := float64(now-j.StartedUnixNS) / 1e9
	if s.ewmaSec <= 0 {
		s.ewmaSec = dur
	} else {
		s.ewmaSec = 0.3*dur + 0.7*s.ewmaSec
	}
	s.mu.Unlock()
	s.m.completed.Inc()
	s.journal.append(event{Ev: evDone, ID: id, ResultDigest: art.ResultDigest, ResumedStep: resumed})
}

// jobDir is the per-job checkpoint directory.
func (s *Server) jobDir(id string) string { return filepath.Join(s.cfg.Dir, "jobs", id) }

// execute runs one attempt of a job under the watchdog: resume from disk if
// checkpoints exist, checkpoint on cadence, poll the job's interrupt word
// at every step boundary.
func (s *Server) execute(j *Job, spec JobSpec) (core.Result, faults.Recovery, error) {
	ics, err := core.MakeICs(spec.Scenario, spec.Seed, spec.N)
	if err != nil {
		return core.Result{}, faults.Recovery{}, err
	}
	newObs := func(int) *obs.Obs {
		o := obs.New(false)
		ledger.Prov().Stamp(o.Reg)
		j.seg.Store(o)
		return o
	}
	cfg := spec.runConfig(obs.New(false))
	ckDir := s.jobDir(j.ID)
	if err := os.MkdirAll(ckDir, 0o755); err != nil {
		return core.Result{}, faults.Recovery{}, err
	}
	cfg.Checkpoint = &core.CheckpointConfig{Dir: ckDir, Every: spec.CheckpointEvery}
	cfg.Interrupt = func() bool { return j.intr.Load() != nil }

	var inj *faults.Injector
	if spec.FaultSeed != 0 {
		// A fault-free probe measures the virtual horizon the schedule is
		// drawn over, as in the spacesim CLI.
		base, sched := core.ProbeFaults(cfg, ics, faults.Options{Seed: spec.FaultSeed, Accel: spec.FaultAccel})
		if base.Err != nil {
			return core.Result{}, faults.Recovery{}, fmt.Errorf("fault probe: %w", base.Err)
		}
		if base.Interrupted {
			return base, faults.Recovery{}, nil
		}
		inj = faults.NewInjector(sched)
	}

	wdStop := make(chan struct{})
	var wdWg sync.WaitGroup
	wdWg.Add(1)
	go s.watchdog(j, wdStop, &wdWg)
	defer func() { close(wdStop); wdWg.Wait() }()

	return core.RunRecovered(core.RecoveryConfig{
		RunConfig:      cfg,
		Injector:       inj,
		NewObs:         newObs,
		ResumeFromDisk: true,
	}, ics)
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
	now := time.Now().UnixNano()
	s.mu.Lock()
	j.Error = msg
	j.Retries++
	if j.Retries > s.cfg.MaxRetries {
		j.State = StateFailed
		j.FinishedUnixNS = now
		s.mu.Unlock()
		s.m.failed.Inc()
		s.journal.append(event{Ev: evFail, ID: j.ID, Error: msg})
		return
	}
	retry := j.Retries
	d := backoffDelay(s.cfg.RetryBase, s.cfg.RetryMax, j.ID, retry)
	j.State = StateBackoff
	j.RetryAtUnixNS = now + d.Nanoseconds()
	s.mu.Unlock()
	s.m.retries.Inc()
	s.journal.append(event{Ev: evBackoff, ID: j.ID, Retries: retry,
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
			if j.State != StateBackoff { // canceled while waiting
				s.mu.Unlock()
				return
			}
			j.State = StateQueued
			s.mu.Unlock()
			s.journal.append(event{Ev: evRequeue, ID: j.ID})
			s.enqueue(j.ID)
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

// appendLedger records a computed job in the run ledger (best-effort, like
// every ledger write in this repo).
func (s *Server) appendLedger(a *Artifact) {
	if s.cfg.Ledger == nil {
		return
	}
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return
	}
	rec := &ledger.Record{
		Config: a.Config, Build: ledger.Prov(),
		Metrics: map[string]float64{
			"makespan_sec": a.ElapsedVirtualSec,
			"gflops":       a.Gflops,
		},
	}
	if _, err := s.cfg.Ledger.Append(rec, map[string][]byte{"JOB.json": data}); err != nil {
		fmt.Fprintln(os.Stderr, "spacesimd: ledger:", err)
	}
}

// Handler returns the daemon's HTTP surface:
//
//	POST   /jobs            submit a JobSpec; 202 + job, 429 when full,
//	                        503 while draining
//	GET    /jobs            all jobs, submission order
//	GET    /jobs/{id}       one job (+ its step fraction, rate and ETA
//	                        while running)
//	GET    /jobs/{id}/artifact   the cached result artifact
//	DELETE /jobs/{id}       cancel
//	/metrics, /metrics.json, /progress.json, /debug/pprof/  (live
//	        exposition over the daemon registry, which runs no steps of
//	        its own), /runs (ledger text view, if open)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJob)
	var mounts []live.Mount
	if s.cfg.Ledger != nil {
		mounts = append(mounts, live.Mount{Prefix: "/runs", Handler: s.cfg.Ledger.Handler()})
	}
	mux.Handle("/", live.Handler(s.Obs, mounts...))
	return mux
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		var spec JobSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		v, err := s.Submit(spec)
		if err != nil {
			var full errOverload
			if ok := asOverload(err, &full); ok {
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
	digest := j.ConfigDigest
	state := j.State
	s.mu.Unlock()

	switch {
	case tail == "artifact" && r.Method == http.MethodGet:
		if state != StateDone {
			http.Error(w, fmt.Sprintf("job %s is %s, not done", id, state), http.StatusConflict)
			return
		}
		data, err := s.cache.readRaw(digest)
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

func asOverload(err error, out *errOverload) bool {
	e, ok := err.(errOverload)
	if ok {
		*out = e
	}
	return ok
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
