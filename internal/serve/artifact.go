package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"spacesim/internal/core"
	"spacesim/internal/job"
	"spacesim/internal/obs/ledger"
)

// ArtifactSchemaVersion stamps every result artifact.
//
//	1 — config + digest, final bodies, energy history, result digest
const ArtifactSchemaVersion = 1

// resultsDir holds cached artifacts under the state directory, one file per
// config digest.
const resultsDir = "results"

// Artifact is a completed job's result: the deterministic final state plus
// informational modeled-performance numbers. ResultDigest covers only the
// deterministic part ({bodies, energy history}), so a resumed or replayed
// job — whose virtual-time totals legitimately include replay — still
// proves bit-identity by digest equality.
type Artifact struct {
	SchemaVersion int             `json:"schema_version"`
	Config        ledger.Config   `json:"config"`
	ConfigDigest  string          `json:"config_digest"`
	Steps         int             `json:"steps"`
	Bodies        []job.Body      `json:"bodies"`
	EnergyHistory []core.Energies `json:"energy_history"`
	ResultDigest  string          `json:"result_digest"`
	// Informational (vary under resume/replay; excluded from the digest).
	ElapsedVirtualSec float64 `json:"elapsed_virtual_sec"`
	Gflops            float64 `json:"gflops"`
	Interactions      int64   `json:"interactions"`
	ResumedStep       int     `json:"resumed_step,omitempty"`
	Attempts          int     `json:"attempts,omitempty"`
}

// buildArtifact converts a completed run into its artifact.
func buildArtifact(spec job.Spec, res core.Result, resumedStep, attempts int) *Artifact {
	bodies := job.Bodies(res.Bodies)
	cfg := spec.LedgerConfig()
	return &Artifact{
		SchemaVersion:     ArtifactSchemaVersion,
		Config:            cfg,
		ConfigDigest:      cfg.Digest(),
		Steps:             res.Steps,
		Bodies:            bodies,
		EnergyHistory:     res.EnergyHistory,
		ResultDigest:      job.ResultDigest(bodies, res.EnergyHistory),
		ElapsedVirtualSec: res.ElapsedVirtual,
		Gflops:            res.Gflops,
		Interactions:      res.Interactions,
		ResumedStep:       resumedStep,
		Attempts:          attempts,
	}
}

// cache is the content-addressed result store: one JSON artifact per config
// digest under <state>/results/. Writes go through tmp+rename so a crashed
// daemon never leaves a half artifact under a valid key.
type cache struct {
	dir string
}

func openCache(stateDir string) (*cache, error) {
	dir := filepath.Join(stateDir, resultsDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &cache{dir: dir}, nil
}

func (c *cache) path(configDigest string) string {
	return filepath.Join(c.dir, configDigest+".json")
}

// get loads the cached artifact for a config digest; ok=false on a miss. A
// present-but-unreadable artifact is treated as a miss (the job recomputes
// and rewrites it) rather than an error.
func (c *cache) get(configDigest string) (*Artifact, bool) {
	data, err := os.ReadFile(c.path(configDigest))
	if err != nil {
		return nil, false
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, false
	}
	if a.ConfigDigest != configDigest {
		return nil, false
	}
	return &a, true
}

// put stores an artifact under its config digest.
func (c *cache) put(a *Artifact) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), c.path(a.ConfigDigest)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// readRaw returns the raw artifact bytes for serving over HTTP.
func (c *cache) readRaw(configDigest string) ([]byte, error) {
	data, err := os.ReadFile(c.path(configDigest))
	if err != nil {
		return nil, fmt.Errorf("serve: artifact for %s: %w", configDigest[:12], err)
	}
	return data, nil
}
