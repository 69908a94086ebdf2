package obs

import (
	"sync"
	"time"
)

// Progress metric names. Engines publish run progress into the ordinary
// metrics registry under these names (gauges fold with Max so re-publishing
// after a checkpoint rollback keeps the externally visible fraction
// monotone; counters accumulate). Every snapshot and dump path carries them
// for free; Progress.Snapshot adds the host-time rate and ETA on top.
const (
	ProgressStepsDone   = "progress.steps_done"
	ProgressStepsTotal  = "progress.steps_total"
	ProgressVirtualSec  = "progress.virtual_sec"
	ProgressPhase       = "progress.phase"
	ProgressState       = "progress.state"
	ProgressCheckpoints = "progress.checkpoints"
	ProgressRecoveries  = "progress.recoveries"
)

// Progress is a publisher of run progress: pre-resolved handles on the
// progress.* metrics, plus the host-time marks the rate and ETA are taken
// over. All methods are safe on a nil receiver, so engines can publish
// unconditionally.
type Progress struct {
	stepsDone   *Gauge
	stepsTotal  *Gauge
	virtualSec  *Gauge
	phase       *Text
	state       *Text
	checkpoints *Counter
	recoveries  *Counter

	mu          sync.Mutex // guards the marks
	first, last mark       // first.host.IsZero() until the first mark
}

// mark is where the run stood at one host instant: steps_done and
// virtual_sec as published then.
type mark struct {
	host           time.Time
	steps, virtual float64
}

func newProgress(reg *Registry) *Progress {
	return &Progress{
		stepsDone:   reg.Gauge(ProgressStepsDone),
		stepsTotal:  reg.Gauge(ProgressStepsTotal),
		virtualSec:  reg.Gauge(ProgressVirtualSec),
		phase:       reg.Text(ProgressPhase),
		state:       reg.Text(ProgressState),
		checkpoints: reg.Counter(ProgressCheckpoints),
		recoveries:  reg.Counter(ProgressRecoveries),
	}
}

// SetTotal publishes the total step count of the run and marks the host
// time progress is measured from.
func (p *Progress) SetTotal(steps int) {
	if p != nil {
		p.setTotalAt(steps, time.Now())
	}
}

func (p *Progress) setTotalAt(steps int, now time.Time) {
	p.stepsTotal.Max(float64(steps))
	p.mu.Lock()
	p.markLocked(now)
	p.mu.Unlock()
}

// StepDone publishes that steps through `done` have completed, along with
// the current virtual clock. Max-folded: rollbacks never move the published
// fraction backwards, and only a call that raises steps_done adds a mark.
func (p *Progress) StepDone(done int, virtualSec float64) {
	if p != nil {
		p.stepDoneAt(done, virtualSec, time.Now())
	}
}

func (p *Progress) stepDoneAt(done int, virtualSec float64, now time.Time) {
	p.virtualSec.Max(virtualSec)
	p.mu.Lock()
	defer p.mu.Unlock()
	if float64(done) > p.stepsDone.Value() {
		p.stepsDone.Max(float64(done))
		p.markLocked(now)
	}
}

func (p *Progress) markLocked(now time.Time) {
	m := mark{host: now, steps: p.stepsDone.Value(), virtual: p.virtualSec.Value()}
	if p.first.host.IsZero() {
		p.first = m
	}
	p.last = m
}

// Phase publishes the currently executing phase name.
func (p *Progress) Phase(name string) {
	if p == nil {
		return
	}
	p.phase.Set(name)
}

// State publishes the run state ("running", "recovering", "done", ...).
func (p *Progress) State(s string) {
	if p == nil {
		return
	}
	p.state.Set(s)
}

// Checkpoint counts one completed checkpoint write.
func (p *Progress) Checkpoint() {
	if p == nil {
		return
	}
	p.checkpoints.Inc()
}

// Recovery counts one checkpoint-rollback recovery.
func (p *Progress) Recovery() {
	if p == nil {
		return
	}
	p.recoveries.Inc()
}

// ProgressSnapshot is the /progress.json shape: where the run is, how fast
// it is moving, and when it should finish.
type ProgressSnapshot struct {
	State        string  `json:"state"`
	Phase        string  `json:"phase"`
	StepsDone    float64 `json:"steps_done"`
	StepsTotal   float64 `json:"steps_total"`
	StepFraction float64 `json:"step_fraction"`
	VirtualSec   float64 `json:"virtual_sec"`
	// HostSec is host seconds since the first mark (0 before it).
	HostSec float64 `json:"host_sec"`
	// VirtualPerHostSec is virtual seconds simulated per host second from
	// the first mark to the latest; 0 until they differ in host time.
	VirtualPerHostSec float64 `json:"virtual_sec_per_sec"`
	// ETASec estimates host seconds to completion from the step rate
	// between the first and latest marks; -1 until a step has completed
	// since the first mark.
	ETASec      float64 `json:"eta_sec"`
	Checkpoints int64   `json:"checkpoints"`
	Recoveries  int64   `json:"recoveries"`
}

// Snapshot returns the current progress view. The rate and ETA are taken
// over this publisher's marks, first to latest, so a fresh Obs that resumes
// at a restored step sizes its ETA from the steps it has run itself.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{ETASec: -1}
	}
	s := ProgressSnapshot{
		State:       p.state.Value(),
		Phase:       p.phase.Value(),
		StepsDone:   p.stepsDone.Value(),
		StepsTotal:  p.stepsTotal.Value(),
		VirtualSec:  p.virtualSec.Value(),
		Checkpoints: p.checkpoints.Value(),
		Recoveries:  p.recoveries.Value(),
		ETASec:      -1,
	}
	if s.StepsTotal > 0 {
		s.StepFraction = min(s.StepsDone/s.StepsTotal, 1)
	}
	p.mu.Lock()
	first, last := p.first, p.last
	p.mu.Unlock()
	if first.host.IsZero() {
		return s
	}
	s.HostSec = time.Since(first.host).Seconds()
	span := last.host.Sub(first.host).Seconds()
	if span <= 0 {
		return s
	}
	s.VirtualPerHostSec = (last.virtual - first.virtual) / span
	if done, remaining := last.steps-first.steps, s.StepsTotal-last.steps; done > 0 && remaining >= 0 {
		s.ETASec = remaining * span / done
	}
	return s
}

// progressOnce caches the Obs-level publisher.
type progressOnce struct {
	once sync.Once
	p    *Progress
}

// Progress returns the run-progress publisher for this Obs, resolved once.
// Safe on a nil Obs (returns nil; all publisher methods no-op).
func (o *Obs) Progress() *Progress {
	if o == nil {
		return nil
	}
	o.progress.once.Do(func() { o.progress.p = newProgress(o.Reg) })
	return o.progress.p
}
