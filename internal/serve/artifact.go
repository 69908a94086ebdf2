package serve

import (
	"encoding/json"
	"fmt"

	"spacesim/internal/core"
	"spacesim/internal/job"
	"spacesim/internal/obs/ledger"
)

// ArtifactSchemaVersion stamps every result artifact.
//
//	1 — config + digest, final bodies, energy history, result digest
const ArtifactSchemaVersion = 1

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

// artifactBlob names the artifact in its ledger record.
const artifactBlob = "JOB.json"

// storeArtifact appends a computed artifact to the run ledger as the
// JOB.json blob of one record (the result, no metrics: a daemon job is not
// a measurement) and points its config digest at that blob.
func (s *Server) storeArtifact(a *Artifact) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	rec := &ledger.Record{Config: a.Config, Build: ledger.Prov()}
	if _, err := s.runs.Append(rec, map[string][]byte{artifactBlob: append(data, '\n')}); err != nil {
		return err
	}
	s.mu.Lock()
	s.artifacts[rec.ConfigDigest] = stored{blob: rec.Artifacts[artifactBlob], result: a.ResultDigest}
	s.mu.Unlock()
	return nil
}

// stored is where a config digest's result is: the ledger blob holding its
// artifact and, once this process wrote or first decoded that blob, the
// artifact's result digest ("" until then).
type stored struct{ blob, result string }

// artifactBytes returns the stored artifact of a config digest, its blob
// checked against its SHA-256, and where it is stored.
func (s *Server) artifactBytes(configDigest string) ([]byte, stored, error) {
	s.mu.Lock()
	st, ok := s.artifacts[configDigest]
	s.mu.Unlock()
	if !ok {
		return nil, st, fmt.Errorf("serve: no artifact for %s", configDigest[:12])
	}
	data, err := s.runs.ReadBlob(st.blob)
	return data, st, err
}

// cachedResult returns the result digest of a config digest's stored
// artifact; ok=false on a miss. Every hit checks the blob against its
// SHA-256, and only the first hit on a blob this process did not write
// decodes it: the digest is kept in memory from then on. A
// present-but-unreadable artifact is a miss: the job recomputes and stores
// it again.
func (s *Server) cachedResult(configDigest string) (string, bool) {
	data, st, err := s.artifactBytes(configDigest)
	if err != nil {
		return "", false
	}
	if st.result == "" {
		var a Artifact
		if err := json.Unmarshal(data, &a); err != nil || a.ConfigDigest != configDigest {
			return "", false
		}
		st.result = a.ResultDigest
		s.mu.Lock()
		if s.artifacts[configDigest].blob == st.blob {
			s.artifacts[configDigest] = st
		}
		s.mu.Unlock()
	}
	return st.result, true
}
