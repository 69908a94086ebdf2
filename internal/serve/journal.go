package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"spacesim/internal/job"
	"spacesim/internal/obs/ledger"
)

// JournalFile is the durable job queue: one JSON event per line, append-only
// under the state directory. Replaying it on startup reconstructs every
// job's state, so a kill -9 loses nothing but the record being written at
// the instant of death (which ledger.ReadJSONL's torn-tail tolerance skips).
const JournalFile = "jobs.jsonl"

// Journal event kinds. submit carries the spec; the rest reference the job
// by ID and move its state machine.
const (
	evSubmit  = "submit"  // job created → queued
	evStart   = "start"   // attempt began → running
	evRequeue = "requeue" // drain gave the job back → queued
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
	Retries    int       `json:"retries,omitempty"`
	RetryAtNS  int64     `json:"retry_at_unix_ns,omitempty"`
	// done details
	ResultDigest string `json:"result_digest,omitempty"`
	ResumedStep  int    `json:"resumed_step,omitempty"`
	CacheHit     bool   `json:"cache_hit,omitempty"`
	Error        string `json:"error,omitempty"`
}

// journal is the open append handle. One file handle, one mutex: every
// event is a single O_APPEND write of one line, so concurrent workers never
// interleave partial records.
type journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

func openJournal(dir string) (*journal, error) {
	path := filepath.Join(dir, JournalFile)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &journal{f: f, path: path}, nil
}

// append writes one event. Errors surface to the caller (the server treats
// a dead journal as fatal for new submissions but never kills running
// jobs).
func (j *journal) append(ev event) error {
	if ev.TimeUnixNS == 0 {
		ev.TimeUnixNS = time.Now().UnixNano()
	}
	line, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("serve: journal closed")
	}
	_, err = j.f.Write(append(line, '\n'))
	return err
}

func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// replayJournal folds the journal into the job table, preserving submit
// order. A torn final line — the daemon died mid-append — is skipped (torn
// reports it); corruption anywhere else is an error. Events for unknown
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
			j := &Job{jobRecord: jobRecord{
				ID: ev.ID, Spec: *ev.Spec, ConfigDigest: ev.Spec.Digest(),
				State: StateQueued, SubmittedUnixNS: ev.TimeUnixNS,
			}}
			jobs[ev.ID] = j
			order = append(order, ev.ID)
			return nil
		}
		j, ok := jobs[ev.ID]
		if !ok {
			return nil
		}
		switch ev.Ev {
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
			j.Error = ev.Error
			j.FinishedUnixNS = ev.TimeUnixNS
		case evCancel:
			j.State = StateCanceled
			j.FinishedUnixNS = ev.TimeUnixNS
		}
		return nil
	})
	if err != nil {
		return nil, nil, false, fmt.Errorf("serve: journal replay: %w", err)
	}
	return jobs, order, torn, nil
}

// jobSeq extracts the numeric sequence from a job ID (j000012-abcdef01 →
// 12) so a restarted daemon continues numbering where it stopped.
func jobSeq(id string) int {
	if !strings.HasPrefix(id, "j") {
		return 0
	}
	dash := strings.IndexByte(id, '-')
	if dash < 0 {
		return 0
	}
	n, err := strconv.Atoi(id[1:dash])
	if err != nil {
		return 0
	}
	return n
}
