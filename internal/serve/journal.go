package serve

import (
	"encoding/json"
	"fmt"
	"path/filepath"

	"spacesim/internal/job"
	"spacesim/internal/obs/ledger"
)

// JournalFile is the durable job queue: one JSON event per line, append-only
// under the state directory. Replaying it on startup reconstructs every
// job's state, so a kill -9 loses nothing but the record being written at
// the instant of death (a torn record: ledger.OpenJSONL ends it with a
// newline and ledger.ReadJSONL skips it).
const JournalFile = "jobs.jsonl"

// Journal event kinds. submit carries the spec; the rest reference the job
// by ID and move its state machine.
const (
	evSubmit  = "submit"  // job created → queued
	evStart   = "start"   // attempt began → running
	evRequeue = "requeue" // drain, backoff expiry or restart → queued
	evBackoff = "backoff" // attempt failed, retry scheduled → backoff
	evDone    = "done"    // artifact produced (or cache hit) → done
	evFail    = "fail"    // retries exhausted → failed
	evCancel  = "cancel"  // client canceled → canceled
)

// event is one journal line.
type event struct {
	Ev         string    `json:"ev"`
	ID         string    `json:"id"`
	TimeUnixNS int64     `json:"t"`
	Spec       *job.Spec `json:"spec,omitempty"`
	Attempts   int       `json:"attempts,omitempty"`
	// Retries is the retry count a backoff or fail leaves the job at.
	Retries   int   `json:"retries,omitempty"`
	RetryAtNS int64 `json:"retry_at_unix_ns,omitempty"`
	// done details
	ResultDigest string `json:"result_digest,omitempty"`
	ResumedStep  int    `json:"resumed_step,omitempty"`
	CacheHit     bool   `json:"cache_hit,omitempty"`
	Error        string `json:"error,omitempty"`
}

// apply moves the job's record by one event. It is the one transition
// function: Server.record runs it on the live table and replayJournal folds
// the journal through it, so a restarted daemon reports each job as the
// running one did.
func (j *Job) apply(ev event) {
	switch ev.Ev {
	case evSubmit:
		j.jobRecord = jobRecord{
			ID: ev.ID, Spec: *ev.Spec, ConfigDigest: ev.Spec.Digest(),
			State: StateQueued, SubmittedUnixNS: ev.TimeUnixNS,
		}
	case evStart:
		j.State = StateRunning
		j.Attempts = ev.Attempts
		j.StartedUnixNS = ev.TimeUnixNS
	case evRequeue:
		j.State = StateQueued
	case evBackoff:
		j.State = StateBackoff
		j.Retries = ev.Retries
		j.RetryAtUnixNS = ev.RetryAtNS
		j.Error = ev.Error
	case evDone:
		j.State = StateDone
		j.ResultDigest = ev.ResultDigest
		j.ResumedStep = ev.ResumedStep
		j.CacheHit = ev.CacheHit
		j.FinishedUnixNS = ev.TimeUnixNS
		j.Error = ""
	case evFail:
		j.State = StateFailed
		// A fail written before the event carried retries keeps the count
		// of the last backoff.
		j.Retries = max(j.Retries, ev.Retries)
		j.Error = ev.Error
		j.FinishedUnixNS = ev.TimeUnixNS
	case evCancel:
		j.State = StateCanceled
		j.FinishedUnixNS = ev.TimeUnixNS
	}
}

// replayJournal folds the journal into the job table, preserving submit
// order. A torn record — the daemon died mid-append — is skipped (torn
// reports it); any other corruption before the last line is an error. Events for unknown
// IDs are skipped rather than fatal: a torn submit line orphans its later
// events, and refusing to start over that would turn one lost record into
// a dead daemon.
func replayJournal(dir string) (jobs map[string]*Job, order []string, torn bool, err error) {
	jobs = map[string]*Job{}
	torn, err = ledger.ReadJSONL(filepath.Join(dir, JournalFile), func(line []byte) error {
		var ev event
		if err := json.Unmarshal(line, &ev); err != nil {
			return err
		}
		if ev.Ev == evSubmit {
			if ev.Spec == nil {
				return fmt.Errorf("submit event for %s carries no spec", ev.ID)
			}
			jobs[ev.ID] = &Job{}
			order = append(order, ev.ID)
		}
		if j, ok := jobs[ev.ID]; ok {
			j.apply(ev)
		}
		return nil
	})
	if err != nil {
		return nil, nil, false, fmt.Errorf("serve: journal replay: %w", err)
	}
	return jobs, order, torn, nil
}

// jobSeq extracts the numeric sequence from a job ID (j000012-abcdef01 →
// 12) so a restarted daemon continues numbering where it stopped; an ID of
// another shape reads 0.
func jobSeq(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "j%d-", &n); err != nil {
		return 0
	}
	return n
}
