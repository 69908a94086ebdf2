// Package job is the one description of a simulation run, whoever runs it:
// spacesim parses its flags into a Spec, spacesimd queues the Specs clients
// POST, and both hand them to Execute. A Spec has one set of defaults, one
// validity rule, one config digest and one execution path: the fault probe,
// checkpoint–restart recovery and the check against the uninterrupted twin.
package job

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"spacesim/internal/core"
	"spacesim/internal/faults"
	"spacesim/internal/machine"
	"spacesim/internal/netsim"
	"spacesim/internal/obs"
	"spacesim/internal/obs/ledger"
	"spacesim/internal/vec"
)

// Spec is the deterministic description of one run on the modeled Space
// Simulator: two specs with equal digests produce bit-identical bodies and
// energy histories. The JSON keys are the daemon's wire and journal format;
// a spec is read onto Defaults (DecodeSpec, as spacesim's flags are), so a
// key a client leaves out keeps its default and an explicit zero stays zero.
type Spec struct {
	// Scenario selects the initial conditions (core.Scenarios()).
	Scenario string `json:"scenario"`
	N        int    `json:"n"`
	Ranks    int    `json:"ranks"`
	Steps    int    `json:"steps"`
	// The "engine" and "engine_workers" keys of older clients and journals
	// select nothing and are ignored like any unknown key.
	Seed  int64   `json:"seed"`
	DT    float64 `json:"dt"`
	Theta float64 `json:"theta"`
	Eps   float64 `json:"eps"`
	// CheckpointEvery is the recovery checkpoint cadence in steps, used
	// with faults or a checkpoint directory (Hooks.Dir).
	CheckpointEvery int `json:"checkpoint_every"`
	// FaultSeed injects a seeded fault schedule (0 = off), accelerated by
	// FaultAccel component-months of hazard per virtual second, which must
	// be finite and non-negative and is keyed and drawn only with faults
	// on. It keeps the value it was given: absent it is Defaults'
	// faults.DefaultAccel, and an explicit 0 is keyed as 0 and drawn at
	// faults.DefaultAccel, the zero of faults.Options.
	FaultSeed  int64   `json:"fault_seed"`
	FaultAccel float64 `json:"fault_accel"`
	// NoCache bypasses the daemon's result cache. It directs execution and
	// stays out of the config digest: a recompute must land on the same key.
	NoCache bool `json:"no_cache,omitempty"`
}

// Defaults are spacesim's flag defaults and the values a submitted spec's
// absent keys keep: 4000 Plummer bodies on 16 ranks for 10 steps (~0.25 s,
// 2 CPUs).
var Defaults = Spec{
	Scenario: "plummer", N: 4000, Ranks: 16, Steps: 10, Seed: 1,
	DT: 0.005, Theta: 0.7, Eps: 0.01, CheckpointEvery: 2,
	FaultAccel: faults.DefaultAccel,
}

// DecodeSpec reads one JSON spec onto a copy of Defaults: the keys present
// set their fields, zeros included, and every other field keeps its default.
// Unknown keys are ignored.
func DecodeSpec(r io.Reader) (Spec, error) {
	sp := Defaults
	err := json.NewDecoder(r).Decode(&sp)
	return sp, err
}

// Validate reports the first thing no run can honour: an unknown scenario,
// a negative body count, a cadence below one step, a negative or non-finite
// fault acceleration, or what core.RunConfig.Validate refuses. How large a
// job a daemon admits is the daemon's policy.
func (sp Spec) Validate() error {
	if _, err := core.MakeICs(sp.Scenario, sp.Seed, min(sp.N, 1)); err != nil {
		return err
	}
	if sp.CheckpointEvery < 1 {
		return fmt.Errorf("job: checkpoint_every %d must be >= 1", sp.CheckpointEvery)
	}
	if math.IsNaN(sp.FaultAccel) || math.IsInf(sp.FaultAccel, 0) || sp.FaultAccel < 0 {
		return fmt.Errorf("job: fault acceleration %g must be finite and non-negative", sp.FaultAccel)
	}
	return sp.RunConfig().Validate()
}

// LedgerConfig is the canonical configuration, the key of ledger records
// and so of the daemon's stored results. It keys the physics, not the
// tool, in the strings spacesim has always recorded, so a CLI run and a
// daemon job of one spec share a config digest. The daemon's record holds
// its result and no metrics, so it never enters the CLI runs' trend.
func (sp Spec) LedgerConfig() ledger.Config {
	cfg := ledger.Config{
		Tool: "spacesim", Experiment: "run", Scenario: sp.Scenario,
		N: sp.N, Ranks: sp.Ranks, Steps: sp.Steps,
		Seed: sp.Seed,
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

// Digest returns the config digest of the spec.
func (sp Spec) Digest() string { return sp.LedgerConfig().Digest() }

// RunConfig is the spec's core run configuration on the Space Simulator,
// before Execute adds what its hooks say.
func (sp Spec) RunConfig() core.RunConfig {
	return core.RunConfig{
		Cluster: machine.SpaceSimulator(netsim.ProfileLAM), Procs: sp.Ranks, Steps: sp.Steps,
		Opt: core.Options{Theta: sp.Theta, Eps: sp.Eps, DT: sp.DT},
	}
}

// Hooks are what differ between the callers of Execute.
type Hooks struct {
	// NewObs supplies each run segment's observation (private when nil).
	NewObs func() *obs.Obs
	// Interrupt is polled at every step boundary (core.RunConfig.Interrupt).
	Interrupt func() bool
	// Dir, when set, holds the checkpoints, and the run resumes from the
	// newest intact one there. Otherwise a run with faults checkpoints in a
	// temporary directory, and one without writes none.
	Dir string
	// GatherBodies returns the final bodies (the allgather costs virtual
	// time); a run with faults always gathers, for the twin check.
	GatherBodies bool
	// Started runs after the fault schedule is drawn (empty without
	// faults), before the run proper.
	Started func(faults.Schedule)
}

// Execute runs the spec. With faults on, a fault-free probe first measures
// the horizon the schedule is drawn over, and is the twin the recovered run
// must match; an interrupted probe is returned, and nothing else runs.
func Execute(sp Spec, h Hooks) (core.Result, faults.Recovery, error) {
	ics, err := core.MakeICs(sp.Scenario, sp.Seed, sp.N)
	if err != nil {
		return core.Result{}, faults.Recovery{}, err
	}
	rc := core.RecoveryConfig{RunConfig: sp.RunConfig(), NewObs: h.NewObs}
	rc.Interrupt = h.Interrupt
	rc.GatherBodies = h.GatherBodies || sp.FaultSeed != 0
	every := sp.CheckpointEvery
	if h.Dir == "" && sp.FaultSeed == 0 {
		every = 0
	}
	var twin *core.Result
	if sp.FaultSeed != 0 {
		base, s := core.ProbeFaults(rc.RunConfig, ics, faults.Options{Seed: sp.FaultSeed, Accel: sp.FaultAccel})
		if base.Err != nil {
			return base, faults.Recovery{}, fmt.Errorf("fault-free probe: %w", base.Err)
		}
		if base.Interrupted {
			return base, faults.Recovery{}, nil
		}
		rc.Schedule, twin = s, &base
	}
	if h.Started != nil {
		h.Started(rc.Schedule)
	}
	return Recover(rc, ics, h.Dir, every, twin)
}

// Recover runs rc under core.RunRecovered, checkpointing every `every`
// steps (0: never) in dir, or in a temporary directory when dir is empty. A
// run that completes must match twin, when set, bit for bit.
func Recover(rc core.RecoveryConfig, ics []core.Body, dir string, every int, twin *core.Result) (core.Result, faults.Recovery, error) {
	if every > 0 {
		if dir == "" {
			tmp, err := os.MkdirTemp("", "spacesim-ck-")
			if err != nil {
				return core.Result{}, faults.Recovery{}, err
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		} else if err := os.MkdirAll(dir, 0o755); err != nil {
			return core.Result{}, faults.Recovery{}, err
		}
		rc.Checkpoint = &core.CheckpointConfig{Dir: dir, Every: every}
	}
	res, st, err := core.RunRecovered(rc, ics)
	if err != nil || twin == nil || res.Interrupted {
		return res, st, err
	}
	ok := core.BitIdentical(*twin, res)
	st.RecoveredBitIdentical = &ok
	if !ok {
		return res, st, errors.New("job: recovered state differs from the uninterrupted twin")
	}
	return res, st, nil
}

// Body is one final body as results carry it: the fields core.BitIdentical
// compares.
type Body struct {
	ID   int64   `json:"id"`
	Pos  vec.V3  `json:"pos"`
	Vel  vec.V3  `json:"vel"`
	Mass float64 `json:"mass"`
}

// Bodies returns the result form of a gathered final state.
func Bodies(bs []core.Body) []Body {
	out := make([]Body, len(bs))
	for i, b := range bs {
		out[i] = Body{ID: b.ID, Pos: b.Pos, Vel: b.Vel, Mass: b.Mass}
	}
	return out
}

// ResultDigest is the SHA-256 of the canonical JSON of the final bodies and
// energy history: virtual-time totals stay out, so a resumed or replayed
// run proves bit-identity by digest equality.
func ResultDigest(bodies []Body, hist []core.Energies) string {
	data, err := json.Marshal(struct {
		Bodies        []Body          `json:"bodies"`
		EnergyHistory []core.Energies `json:"energy_history"`
	}{bodies, hist})
	if err != nil {
		panic("job: result marshal: " + err.Error())
	}
	return ledger.BlobDigest(data)
}
