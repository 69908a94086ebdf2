package serve

import (
	"fmt"
	"sync/atomic"

	"spacesim/internal/core"
	"spacesim/internal/machine"
	"spacesim/internal/netsim"
	"spacesim/internal/obs"
	"spacesim/internal/obs/ledger"
)

// JobSpec is the client-facing description of one simulation job — exactly
// the deterministic invocation parameters, so two specs with equal canonical
// configs produce bit-identical results and share one cached artifact.
type JobSpec struct {
	// Scenario selects the initial conditions (core.Scenarios()).
	Scenario string `json:"scenario,omitempty"`
	N        int    `json:"n,omitempty"`
	Ranks    int    `json:"ranks,omitempty"`
	Steps    int    `json:"steps,omitempty"`
	// EngineWorkers sizes the rank scheduler's pool (0 = host cores; 1 =
	// fully reproducible schedules). There is no runtime to select: an
	// "engine" key, which older clients sent and older journals carry in
	// every spec, is ignored like any unknown key.
	EngineWorkers int     `json:"engine_workers,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	DT            float64 `json:"dt,omitempty"`
	Theta         float64 `json:"theta,omitempty"`
	Eps           float64 `json:"eps,omitempty"`
	// CheckpointEvery is the recovery checkpoint cadence in steps
	// (default 2). Checkpoints are what make a killed daemon resumable.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// FaultSeed injects a seeded fault schedule (0 = off), accelerated by
	// FaultAccel component-months of hazard per virtual second.
	FaultSeed  int64   `json:"fault_seed,omitempty"`
	FaultAccel float64 `json:"fault_accel,omitempty"`
	// NoCache bypasses the result cache for this submission. It is an
	// execution directive, not part of the configuration, so it stays out
	// of the config digest: the recomputed artifact still lands under (and
	// must equal) the same key.
	NoCache bool `json:"no_cache,omitempty"`
}

// maxRanks is the Space Simulator's node count — the ceiling on a job's
// virtual processors (machine.SpaceSimulator builds exactly this many).
const maxRanks = 294

// withDefaults fills the zero fields with the serve defaults — small enough
// that an empty POST body runs in well under a second.
func (sp JobSpec) withDefaults() JobSpec {
	if sp.Scenario == "" {
		sp.Scenario = "plummer"
	}
	if sp.N == 0 {
		sp.N = 2000
	}
	if sp.Ranks == 0 {
		sp.Ranks = 8
	}
	if sp.Steps == 0 {
		sp.Steps = 4
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.DT == 0 {
		sp.DT = 0.005
	}
	if sp.Theta == 0 {
		sp.Theta = 0.7
	}
	if sp.Eps == 0 {
		sp.Eps = 0.01
	}
	if sp.CheckpointEvery == 0 {
		sp.CheckpointEvery = 2
	}
	if sp.FaultSeed != 0 && sp.FaultAccel == 0 {
		sp.FaultAccel = 50
	}
	return sp
}

// Validate bounds a (defaulted) spec to what a multi-tenant daemon can
// sensibly run; what the engine itself cannot run (a NaN theta, a negative
// eps) is core.RunConfig.Validate's to say.
func (sp JobSpec) Validate() error {
	if _, err := core.MakeICs(sp.Scenario, sp.Seed, 1); err != nil {
		return err
	}
	if sp.N < 16 || sp.N > 1_000_000 {
		return fmt.Errorf("serve: n %d out of range [16, 1000000]", sp.N)
	}
	if sp.Ranks < 1 || sp.Ranks > maxRanks {
		return fmt.Errorf("serve: ranks %d out of range [1, %d]", sp.Ranks, maxRanks)
	}
	if sp.Steps < 1 || sp.Steps > 10_000 {
		return fmt.Errorf("serve: steps %d out of range [1, 10000]", sp.Steps)
	}
	if sp.CheckpointEvery < 1 {
		return fmt.Errorf("serve: checkpoint_every %d must be >= 1", sp.CheckpointEvery)
	}
	return sp.runConfig(nil).Validate()
}

// LedgerConfig is the canonical configuration of the job — the digest key
// for the result cache and the ledger record. NoCache deliberately stays
// out: a forced recompute answers for the same configuration.
func (sp JobSpec) LedgerConfig() ledger.Config {
	cfg := ledger.Config{
		Tool: "spacesimd", Experiment: "job", Scenario: sp.Scenario,
		N: sp.N, Ranks: sp.Ranks, Steps: sp.Steps,
		Workers: sp.EngineWorkers, Seed: sp.Seed,
		Flags: map[string]string{
			"theta": fmt.Sprint(sp.Theta), "dt": fmt.Sprint(sp.DT),
			"eps": fmt.Sprint(sp.Eps),
		},
	}
	if sp.FaultSeed != 0 {
		cfg.Flags["faults"] = fmt.Sprint(sp.FaultSeed)
		cfg.Flags["fault_accel"] = fmt.Sprint(sp.FaultAccel)
		cfg.Flags["checkpoint_every"] = fmt.Sprint(sp.CheckpointEvery)
	}
	return cfg
}

// Digest returns the config digest keying the result cache.
func (sp JobSpec) Digest() string { return sp.LedgerConfig().Digest() }

// runConfig builds the core run configuration for one attempt, observed by
// o. Shared by the runner and the tests that pre-seed checkpoints, so both
// execute the identical simulation.
func (sp JobSpec) runConfig(o *obs.Obs) core.RunConfig {
	cl := machine.SpaceSimulator(netsim.ProfileLAM).WithObs(o)
	return core.RunConfig{
		Cluster: cl, Procs: sp.Ranks, Steps: sp.Steps,
		Opt:           core.Options{Theta: sp.Theta, Eps: sp.Eps, DT: sp.DT},
		GatherBodies:  true,
		EngineWorkers: sp.EngineWorkers,
	}
}

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
	Spec         JobSpec
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
	ID           string  `json:"id"`
	State        string  `json:"state"`
	Spec         JobSpec `json:"spec"`
	ConfigDigest string  `json:"config_digest"`
	Attempts     int     `json:"attempts"`
	Retries      int     `json:"retries"`
	CacheHit     bool    `json:"cache_hit"`
	ResumedStep  int     `json:"resumed_step"`
	ResultDigest string  `json:"result_digest,omitempty"`
	Error        string  `json:"error,omitempty"`

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
