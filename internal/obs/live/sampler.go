// Package live is the live-telemetry layer over the obs metrics registry:
// a background Sampler that periodically snapshots every counter, gauge,
// and histogram (p50/p95/p99) into fixed-capacity ring-buffer time series,
// a run-progress view (step fraction, virtual-sec/sec rate over a sliding
// window, ETA) computed from the progress.* metrics engines already
// publish, and an opt-in stdlib net/http exposition (Prometheus text,
// JSON snapshots, ring-buffer series, pprof).
//
// The sampler is read-only over the registry — it never perturbs virtual
// time, so runs are bit-identical with sampling on or off (pinned by
// core.TestSamplerBitIdentical). Series carry two time columns: host
// seconds since the sampler started (wall-clock, what an operator watches)
// and the run's published virtual clock (progress.virtual_sec), so live
// charts line up with the virtual-time traces post-mortem.
//
// The steady-state sample path allocates nothing: resolved metric handles
// and ring buffers are reused between ticks, and the series list is
// re-enumerated only when Registry.Gen reports a new metric was created.
package live

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spacesim/internal/obs"
)

// SchemaVersion stamps the live Dump block embedded in ANALYSIS.json.
//
//	1 — host/virtual time columns, per-metric value series, progress view
const SchemaVersion = 1

// Config sizes a Sampler. Zero values take defaults.
type Config struct {
	// Every is the sampling cadence (default 250ms).
	Every time.Duration
	// Capacity is the per-series ring size (default 1024 samples — at the
	// default cadence, a bit over four minutes of history).
	Capacity int
	// Window is the sliding-window length, in samples, for the
	// progress-rate and ETA estimate (default 16, clamped to Capacity).
	Window int
}

func (c Config) withDefaults() Config {
	if c.Every <= 0 {
		c.Every = 250 * time.Millisecond
	}
	if c.Capacity <= 0 {
		c.Capacity = 1024
	}
	if c.Window <= 1 {
		c.Window = 16
	}
	if c.Window > c.Capacity {
		c.Window = c.Capacity
	}
	return c
}

// ring is a fixed-capacity float64 ring buffer. total counts pushes ever;
// the last min(total, cap) values are retained.
type ring struct {
	buf   []float64
	total int64
}

func newRing(capacity int) *ring { return &ring{buf: make([]float64, capacity)} }

func (r *ring) push(v float64) {
	r.buf[int(r.total%int64(len(r.buf)))] = v
	r.total++
}

func (r *ring) len() int {
	if r.total < int64(len(r.buf)) {
		return int(r.total)
	}
	return len(r.buf)
}

// at returns the i-th retained value, oldest first.
func (r *ring) at(i int) float64 {
	if r.total < int64(len(r.buf)) {
		return r.buf[i]
	}
	return r.buf[int((r.total+int64(i))%int64(len(r.buf)))]
}

func (r *ring) slice() []float64 {
	out := make([]float64, r.len())
	for i := range out {
		out[i] = r.at(i)
	}
	return out
}

// srcKind discriminates what a source samples.
type srcKind uint8

const (
	srcCounter srcKind = iota
	srcGauge
	srcHist
)

// source is one registry metric with its output series. A counter or gauge
// feeds one series; a histogram feeds four (.count, .p50, .p95, .p99).
type source struct {
	name string
	kind srcKind
	c    *obs.Counter
	g    *obs.Gauge
	h    *obs.Histogram
	out  []*series
}

type series struct {
	name string
	r    *ring
}

// Sampler snapshots an Obs registry into ring-buffer time series on a
// fixed host-time cadence. Start it once; SetObs may swap the observed Obs
// mid-run (checkpoint-restart creates a fresh Obs per recovery segment —
// series continue across the swap, keyed by metric name).
type Sampler struct {
	cfg Config
	obs atomic.Pointer[obs.Obs]
	t0  time.Time

	mu      sync.Mutex // guards everything below
	reg     *obs.Registry
	gen     uint64
	srcs    []*source
	byName  map[string]*series
	host    *ring // host seconds since t0, one entry per tick
	virt    *ring // progress.virtual_sec at each tick
	qs      [3]float64
	samples int64

	// progress.* handles in the current registry.
	pStepsDone  *obs.Gauge
	pStepsTotal *obs.Gauge
	pVirtual    *obs.Gauge
	pPhase      *obs.Text
	pState      *obs.Text
	pCkpts      *obs.Counter
	pRecov      *obs.Counter

	// sliding window over recent ticks for rate/ETA.
	winHost  []float64
	winVirt  []float64
	winSteps []float64

	running bool
	stop    chan struct{}
	done    chan struct{}
}

var quantilePs = []float64{0.50, 0.95, 0.99}

// NewSampler returns a Sampler over o (which may be nil until SetObs).
func NewSampler(o *obs.Obs, cfg Config) *Sampler {
	cfg = cfg.withDefaults()
	s := &Sampler{
		cfg:      cfg,
		t0:       time.Now(),
		byName:   map[string]*series{},
		host:     newRing(cfg.Capacity),
		virt:     newRing(cfg.Capacity),
		winHost:  make([]float64, 0, cfg.Window),
		winVirt:  make([]float64, 0, cfg.Window),
		winSteps: make([]float64, 0, cfg.Window),
	}
	s.obs.Store(o)
	return s
}

// SetObs atomically swaps the observed Obs. Series continue across the
// swap: rings are keyed by metric name, only the handles re-resolve. Safe
// to call while the sampler runs (recovery segments do).
func (s *Sampler) SetObs(o *obs.Obs) {
	if s == nil {
		return
	}
	s.obs.Store(o)
}

// Start launches the background sampling goroutine. Idempotent while
// running; a stopped sampler may be started again.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return
	}
	s.running = true
	stop := make(chan struct{})
	done := make(chan struct{})
	s.stop, s.done = stop, done
	s.mu.Unlock()

	go func() {
		defer close(done)
		t := time.NewTicker(s.cfg.Every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				s.sampleAt(now)
			}
		}
	}()
}

// Stop halts the background goroutine (waiting for it to exit) and takes
// one final sample so the dump includes the end state. Idempotent.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.running {
		s.mu.Unlock()
		return
	}
	s.running = false
	stop, done := s.stop, s.done
	s.mu.Unlock()
	close(stop)
	<-done
	s.SampleNow()
}

// SampleNow takes one sample synchronously (also used by tests and for the
// final tick on Stop).
func (s *Sampler) SampleNow() {
	if s == nil {
		return
	}
	s.sampleAt(time.Now())
}

// Samples returns the number of ticks taken so far.
func (s *Sampler) Samples() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samples
}

func (s *Sampler) sampleAt(now time.Time) {
	o := s.obs.Load()
	if o == nil {
		return
	}
	reg := o.Reg
	if reg == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if reg != s.reg || reg.Gen() != s.gen {
		s.resync(reg)
	}
	host := now.Sub(s.t0).Seconds()
	virt := s.pVirtual.Value()
	s.host.push(host)
	s.virt.push(virt)
	for _, src := range s.srcs {
		switch src.kind {
		case srcCounter:
			src.out[0].r.push(float64(src.c.Value()))
		case srcGauge:
			src.out[0].r.push(src.g.Value())
		case srcHist:
			src.out[0].r.push(float64(src.h.Count()))
			src.h.QuantilesInto(quantilePs, s.qs[:])
			src.out[1].r.push(s.qs[0])
			src.out[2].r.push(s.qs[1])
			src.out[3].r.push(s.qs[2])
		}
	}
	s.pushWindow(host, virt, s.pStepsDone.Value())
	s.samples++
}

// pushWindow appends to the fixed-capacity sliding window, shifting in
// place when full (Window is small; no allocation).
func (s *Sampler) pushWindow(host, virt, steps float64) {
	if len(s.winHost) == cap(s.winHost) {
		copy(s.winHost, s.winHost[1:])
		copy(s.winVirt, s.winVirt[1:])
		copy(s.winSteps, s.winSteps[1:])
		s.winHost = s.winHost[:len(s.winHost)-1]
		s.winVirt = s.winVirt[:len(s.winVirt)-1]
		s.winSteps = s.winSteps[:len(s.winSteps)-1]
	}
	s.winHost = append(s.winHost, host)
	s.winVirt = append(s.winVirt, virt)
	s.winSteps = append(s.winSteps, steps)
}

// resync re-enumerates the registry into the source list, reusing existing
// rings by series name so a registry swap (recovery segment) or a new
// metric does not break continuity. Called with s.mu held; the only
// allocating path of the sampler.
func (s *Sampler) resync(reg *obs.Registry) {
	// Resolve the progress handles first: get-or-create may bump the
	// generation, and we want the gen we store to cover these creations.
	s.pStepsDone = reg.Gauge(obs.ProgressStepsDone)
	s.pStepsTotal = reg.Gauge(obs.ProgressStepsTotal)
	s.pVirtual = reg.Gauge(obs.ProgressVirtualSec)
	s.pPhase = reg.Text(obs.ProgressPhase)
	s.pState = reg.Text(obs.ProgressState)
	s.pCkpts = reg.Counter(obs.ProgressCheckpoints)
	s.pRecov = reg.Counter(obs.ProgressRecoveries)
	s.reg = reg
	s.gen = reg.Gen()

	srcs := make([]*source, 0, len(s.srcs)+8)
	reg.Visit(
		func(n string, c *obs.Counter) { srcs = append(srcs, &source{name: n, kind: srcCounter, c: c}) },
		func(n string, g *obs.Gauge) { srcs = append(srcs, &source{name: n, kind: srcGauge, g: g}) },
		func(n string, h *obs.Histogram) { srcs = append(srcs, &source{name: n, kind: srcHist, h: h}) },
		nil,
	)
	sort.Slice(srcs, func(i, j int) bool { return srcs[i].name < srcs[j].name })
	pad := s.host.len()
	get := func(name string) *series {
		se, ok := s.byName[name]
		if !ok {
			se = &series{name: name, r: newRing(s.cfg.Capacity)}
			// Zero-fill the ticks this series missed so every ring stays in
			// lockstep with the time columns.
			for i := 0; i < pad; i++ {
				se.r.push(0)
			}
			s.byName[name] = se
		}
		return se
	}
	for _, src := range srcs {
		if src.kind == srcHist {
			src.out = []*series{
				get(src.name + ".count"),
				get(src.name + ".p50"),
				get(src.name + ".p95"),
				get(src.name + ".p99"),
			}
		} else {
			src.out = []*series{get(src.name)}
		}
	}
	s.srcs = srcs
}

// SeriesDump is one time series in a Dump, aligned with the time columns.
type SeriesDump struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// Dump is the exported state of the sampler: the retained window of every
// series plus the progress view, embedded into ANALYSIS.json on exit so the
// live view and the post-mortem view are the same data.
type Dump struct {
	SchemaVersion  int              `json:"schema_version"`
	SampleEverySec float64          `json:"sample_every_sec"`
	Samples        int64            `json:"samples"`
	Capacity       int              `json:"capacity"`
	HostSec        []float64        `json:"host_sec"`
	VirtualSec     []float64        `json:"virtual_sec"`
	Series         []SeriesDump     `json:"series"`
	Progress       ProgressSnapshot `json:"progress"`
}

// Dump snapshots the retained series (deterministic name order). Returns a
// non-nil Dump even before the first tick.
func (s *Sampler) Dump() *Dump {
	if s == nil {
		return nil
	}
	prog := s.Progress()
	s.mu.Lock()
	defer s.mu.Unlock()
	d := &Dump{
		SchemaVersion:  SchemaVersion,
		SampleEverySec: s.cfg.Every.Seconds(),
		Samples:        s.samples,
		Capacity:       s.cfg.Capacity,
		HostSec:        s.host.slice(),
		VirtualSec:     s.virt.slice(),
		Progress:       prog,
	}
	names := make([]string, 0, len(s.byName))
	for n := range s.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d.Series = append(d.Series, SeriesDump{Name: n, Values: s.byName[n].r.slice()})
	}
	return d
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
	HostSec      float64 `json:"host_sec"`
	// VirtualPerHostSec is virtual seconds simulated per host second over
	// the sliding window; 0 until the window has at least two samples.
	VirtualPerHostSec float64 `json:"virtual_sec_per_sec"`
	// ETASec estimates host seconds to completion from the windowed step
	// rate; -1 while unknown (window not filled, or steps not advancing).
	ETASec      float64 `json:"eta_sec"`
	Checkpoints int64   `json:"checkpoints"`
	Recoveries  int64   `json:"recoveries"`
	Samples     int64   `json:"samples"`
}

// Progress computes the current progress view from the registry handles
// and the sampling window. Usable whether or not the sampler is running.
func (s *Sampler) Progress() ProgressSnapshot {
	if s == nil {
		return ProgressSnapshot{ETASec: -1}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if o := s.obs.Load(); o != nil && o.Reg != nil && (o.Reg != s.reg || o.Reg.Gen() != s.gen) {
		s.resync(o.Reg)
	}
	p := ProgressSnapshot{
		State:       s.pState.Value(),
		Phase:       s.pPhase.Value(),
		StepsDone:   s.pStepsDone.Value(),
		StepsTotal:  s.pStepsTotal.Value(),
		VirtualSec:  s.pVirtual.Value(),
		HostSec:     time.Since(s.t0).Seconds(),
		Checkpoints: s.pCkpts.Value(),
		Recoveries:  s.pRecov.Value(),
		Samples:     s.samples,
		ETASec:      -1,
	}
	if p.StepsTotal > 0 {
		p.StepFraction = p.StepsDone / p.StepsTotal
		if p.StepFraction > 1 {
			p.StepFraction = 1
		}
	}
	n := len(s.winHost)
	if n >= 2 {
		hostSpan := s.winHost[n-1] - s.winHost[0]
		if hostSpan > 0 {
			p.VirtualPerHostSec = (s.winVirt[n-1] - s.winVirt[0]) / hostSpan
			if n == cap(s.winHost) { // window filled: rate is trustworthy
				stepRate := (s.winSteps[n-1] - s.winSteps[0]) / hostSpan
				if remaining := p.StepsTotal - p.StepsDone; remaining >= 0 && stepRate > 0 {
					eta := remaining / stepRate
					if !math.IsInf(eta, 0) && !math.IsNaN(eta) {
						p.ETASec = eta
					}
				}
			}
		}
	}
	return p
}
