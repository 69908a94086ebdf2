package serve

import (
	"sync/atomic"

	"spacesim/internal/job"
	"spacesim/internal/obs"
)

// Job states. queued → running → done is the happy path; running falls back
// to backoff (watchdog timeout, attempt error) or queued (drain requeue),
// and terminates in done, failed, or canceled.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateBackoff  = "backoff"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Job is one tracked submission. Fields are guarded by the server mutex;
// the interrupt word is atomic because rank 0 polls it from inside the
// simulation.
type Job struct {
	ID           string
	Spec         job.Spec
	ConfigDigest string
	State        string
	// Attempts counts started executions; Retries counts backoff cycles.
	Attempts int
	Retries  int
	// CacheHit marks a job answered from the result cache without running.
	CacheHit bool
	// ResumedStep is the checkpoint step the final attempt resumed from
	// (0 = ran from the initial conditions).
	ResumedStep  int
	ResultDigest string
	Error        string

	SubmittedUnixNS int64
	StartedUnixNS   int64
	FinishedUnixNS  int64
	RetryAtUnixNS   int64

	// intr holds the pending interrupt reason ("drain", "cancel",
	// "watchdog: ..."); nil means keep running. Set once per attempt.
	intr atomic.Pointer[string]
	// seg is the running attempt's current segment Obs, whose progress
	// publisher answers for the job's fraction and ETA; nil between
	// attempts and until the attempt's first segment starts.
	seg atomic.Pointer[obs.Obs]
}

// requestInterrupt asks the running attempt to stop at the next step
// boundary. The first reason wins; later requests are dropped.
func (j *Job) requestInterrupt(reason string) {
	j.intr.CompareAndSwap(nil, &reason)
}

// interruptReason returns the pending reason, or "".
func (j *Job) interruptReason() string {
	if p := j.intr.Load(); p != nil {
		return *p
	}
	return ""
}

// jobView is the JSON shape of a job in API responses.
type jobView struct {
	ID           string   `json:"id"`
	State        string   `json:"state"`
	Spec         job.Spec `json:"spec"`
	ConfigDigest string   `json:"config_digest"`
	Attempts     int      `json:"attempts"`
	Retries      int      `json:"retries"`
	CacheHit     bool     `json:"cache_hit"`
	ResumedStep  int      `json:"resumed_step"`
	ResultDigest string   `json:"result_digest,omitempty"`
	Error        string   `json:"error,omitempty"`

	SubmittedUnixNS int64 `json:"submitted_unix_ns"`
	StartedUnixNS   int64 `json:"started_unix_ns,omitempty"`
	FinishedUnixNS  int64 `json:"finished_unix_ns,omitempty"`
	RetryAtUnixNS   int64 `json:"retry_at_unix_ns,omitempty"`

	Progress *obs.ProgressSnapshot `json:"progress,omitempty"`
}

// view snapshots a job for the API. Called with the server mutex held.
func (j *Job) view(withProgress bool) jobView {
	v := jobView{
		ID: j.ID, State: j.State, Spec: j.Spec, ConfigDigest: j.ConfigDigest,
		Attempts: j.Attempts, Retries: j.Retries, CacheHit: j.CacheHit,
		ResumedStep: j.ResumedStep, ResultDigest: j.ResultDigest, Error: j.Error,
		SubmittedUnixNS: j.SubmittedUnixNS, StartedUnixNS: j.StartedUnixNS,
		FinishedUnixNS: j.FinishedUnixNS, RetryAtUnixNS: j.RetryAtUnixNS,
	}
	if o := j.seg.Load(); withProgress && j.State == StateRunning && o != nil {
		p := o.Progress().Snapshot()
		v.Progress = &p
	}
	return v
}
