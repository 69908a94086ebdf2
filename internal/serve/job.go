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

// jobRecord is what a job reports: the /jobs JSON, in this key order.
// Fields are guarded by the server mutex and move only by (*Job).apply.
type jobRecord struct {
	ID           string   `json:"id"`
	State        string   `json:"state"`
	Spec         job.Spec `json:"spec"`
	ConfigDigest string   `json:"config_digest"`
	// Attempts counts started executions; Retries counts backoff cycles.
	Attempts int `json:"attempts"`
	Retries  int `json:"retries"`
	// CacheHit marks a job answered from the result store without running.
	CacheHit bool `json:"cache_hit"`
	// ResumedStep is the checkpoint step the final attempt resumed from
	// (0 = ran from the initial conditions).
	ResumedStep  int    `json:"resumed_step"`
	ResultDigest string `json:"result_digest,omitempty"`
	Error        string `json:"error,omitempty"`

	SubmittedUnixNS int64 `json:"submitted_unix_ns"`
	StartedUnixNS   int64 `json:"started_unix_ns,omitempty"`
	FinishedUnixNS  int64 `json:"finished_unix_ns,omitempty"`
	RetryAtUnixNS   int64 `json:"retry_at_unix_ns,omitempty"`
}

// Job is one tracked submission: its record, plus the interrupt word,
// which is atomic because rank 0 polls it from inside the simulation.
type Job struct {
	jobRecord

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
	jobRecord
	Progress *obs.ProgressSnapshot `json:"progress,omitempty"`
}

// view snapshots a job for the API. Called with the server mutex held.
func (j *Job) view(withProgress bool) jobView {
	v := jobView{jobRecord: j.jobRecord}
	if o := j.seg.Load(); withProgress && j.State == StateRunning && o != nil {
		p := o.Progress().Snapshot()
		v.Progress = &p
	}
	return v
}
