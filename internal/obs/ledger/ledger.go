// Package ledger is the persistent cross-run history of the simulator: an
// append-only local store (default .ssruns/) to which every spacesim and
// ssbench invocation adds one run record. A record carries
//
//   - a SHA-256 digest of the run's canonical configuration (scenario, N,
//     ranks, engine, workers, seed, flags — see Config), the key under
//     which runs are comparable across time,
//   - build and host provenance (VCS revision and go version from
//     runtime/debug.ReadBuildInfo, hostname, GOMAXPROCS — see Provenance),
//   - the run's headline metrics, which the writer takes from the report it
//     holds (virtual makespan, parallel efficiency, message latency,
//     checkpoint overhead) plus its own (Gflop/s, peak RSS), and
//   - SHA-256 digests of the full artifacts (ANALYSIS.json,
//     FAULTSWEEP.json, ...) stored content-addressed under blobs/.
//
// The store is two pieces on disk:
//
//	<dir>/index.jsonl   one JSON record per line, append-only
//	<dir>/blobs/<hex>   artifact bytes, named by their SHA-256
//
// Identical artifact bytes share one blob, so the store grows with distinct
// results, not with invocations — the identical-seed+config ⇒ digest keying
// a simulation-as-a-service result cache needs.
//
// The package is also the repository's one regression judge: GateAgainst
// holds a run's headline metrics to the bands of the Gates table, against
// the median/MAD of comparable earlier runs. `ssbench trend -gate` judges
// the newest record of each group that way, and `ssbench diff` judges one
// report against another of the same config digest.
//
// Ledger writes are best-effort and happen strictly after a run's virtual
// clocks have stopped: a failed append never fails the run, and an enabled
// ledger never perturbs bit-identity (core.TestLiveReadersBitIdentical and
// the other pins hold with the ledger on).
package ledger

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// SchemaVersion stamps every run record.
//
//	1 — config digest, provenance, headline metrics, artifact blob digests
const SchemaVersion = 1

// DefaultDir is the conventional store location relative to the working
// directory; the CLIs' -ledger flags default to it.
const DefaultDir = ".ssruns"

// IndexFile is the append-only JSONL index inside a store directory.
const IndexFile = "index.jsonl"

// blobDir holds the content-addressed artifact bytes.
const blobDir = "blobs"

// Record is one ledgered run.
type Record struct {
	SchemaVersion int `json:"schema_version"`
	// ID is the short content digest of the record itself (first 12 hex of
	// the SHA-256 over the canonical record JSON, ID excluded).
	ID string `json:"id"`
	// TimeUnixNS is the append wall-clock in nanoseconds since the epoch.
	TimeUnixNS int64 `json:"time_unix_ns"`
	// ConfigDigest keys comparable runs: Config.Digest() of Config.
	ConfigDigest string `json:"config_digest"`
	Config       Config `json:"config"`
	// Build is the provenance of the binary and host that produced the run.
	Build Provenance `json:"build"`
	// Metrics are the run's headline measurements (the writer's report
	// headline plus extras such as peak_rss_bytes).
	Metrics map[string]float64 `json:"metrics"`
	// Artifacts maps artifact names (ANALYSIS.json, FAULTSWEEP.json)
	// to the SHA-256 of their bytes in the blob store.
	Artifacts map[string]string `json:"artifacts,omitempty"`
}

// Time returns the record's append time.
func (r *Record) Time() time.Time { return time.Unix(0, r.TimeUnixNS) }

// Store is an open run ledger rooted at Dir.
type Store struct {
	Dir string
}

// Open ensures dir and its blob directory exist and returns the store.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("ledger: empty directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, blobDir), 0o755); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	return &Store{Dir: dir}, nil
}

// IndexPath returns the path of the JSONL index.
func (s *Store) IndexPath() string { return filepath.Join(s.Dir, IndexFile) }

// BlobPath returns where the blob with the given hex digest lives.
func (s *Store) BlobPath(digest string) string {
	return filepath.Join(s.Dir, blobDir, digest)
}

// BlobDigest returns the lowercase hex SHA-256 of data — the blob naming
// and artifact-digest function.
func BlobDigest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// PutBlob stores data content-addressed and returns its digest. Re-storing
// identical bytes is a no-op (the blob already exists under its name).
func (s *Store) PutBlob(data []byte) (string, error) {
	d := BlobDigest(data)
	path := s.BlobPath(d)
	if _, err := os.Stat(path); err == nil {
		return d, nil
	}
	// Write-then-rename so a crashed writer never leaves a half blob under
	// a valid digest name.
	tmp, err := os.CreateTemp(filepath.Join(s.Dir, blobDir), ".tmp-*")
	if err != nil {
		return "", err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return d, nil
}

// ReadBlob loads a blob and verifies its content against its name,
// refusing to return silently corrupted artifact bytes.
func (s *Store) ReadBlob(digest string) ([]byte, error) {
	data, err := os.ReadFile(s.BlobPath(digest))
	if err != nil {
		return nil, err
	}
	if got := BlobDigest(data); got != digest {
		return nil, fmt.Errorf("ledger: blob %s corrupt (content digest %s)", digest, got)
	}
	return data, nil
}

// Append stores the artifacts as blobs, fills rec.Artifacts, stamps the
// record (schema version, time, the digest of rec.Config, ID) and appends
// it to the index. The returned ID identifies the record (e.g. at
// /runs/{id} on the live server). Callers treat errors as best-effort: a run never fails
// because its ledger write did.
func (s *Store) Append(rec *Record, artifacts map[string][]byte) (string, error) {
	if rec.TimeUnixNS == 0 {
		rec.TimeUnixNS = time.Now().UnixNano()
	}
	rec.SchemaVersion = SchemaVersion
	rec.ConfigDigest = rec.Config.Digest()
	if len(artifacts) > 0 && rec.Artifacts == nil {
		rec.Artifacts = map[string]string{}
	}
	names := make([]string, 0, len(artifacts))
	for name := range artifacts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d, err := s.PutBlob(artifacts[name])
		if err != nil {
			return "", err
		}
		rec.Artifacts[name] = d
	}
	rec.ID = ""
	idBytes, err := json.Marshal(rec)
	if err != nil {
		return "", err
	}
	rec.ID = BlobDigest(idBytes)[:12]
	line, err := json.Marshal(rec)
	if err != nil {
		return "", err
	}
	f, err := os.OpenFile(s.IndexPath(), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return "", err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return "", err
	}
	return rec.ID, f.Close()
}

// ReadJSONL streams the non-empty lines of a JSONL file through fn with
// torn-tail tolerance: when fn rejects the FINAL non-empty line — the
// signature of a crash mid-append — the line is skipped and reported via
// torn instead of failing the read, because an append-only journal loses
// nothing but the record that was being written when the power went out. A
// rejected line anywhere else is real corruption and returns fn's error
// wrapped with its line number. A missing file reads as empty.
func ReadJSONL(path string, fn func(line []byte) error) (torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	lineNo := 0
	pendingErr := error(nil) // a rejected line, fatal only if more lines follow
	pendingLine := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if pendingErr != nil {
			return false, fmt.Errorf("%s line %d: %w", path, pendingLine, pendingErr)
		}
		if err := fn(line); err != nil {
			pendingErr, pendingLine = err, lineNo
		}
	}
	if err := sc.Err(); err != nil {
		return false, err
	}
	return pendingErr != nil, nil
}

// Records reads every index record, oldest first. A missing index is an
// empty ledger, not an error. A truncated final line (a writer crashed
// mid-append) is skipped with a warning on stderr — the records before it
// are intact by construction; a malformed line anywhere else is an error
// (the index is append-only and ours).
func (s *Store) Records() ([]Record, error) {
	var out []Record
	torn, err := ReadJSONL(s.IndexPath(), func(line []byte) error {
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		out = append(out, rec)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	if torn {
		fmt.Fprintf(os.Stderr, "ledger: %s: skipping torn trailing record (crash mid-append)\n", s.IndexPath())
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TimeUnixNS < out[j].TimeUnixNS })
	return out, nil
}

// Find returns the record with the given ID (full or unambiguous prefix).
func (s *Store) Find(id string) (*Record, error) {
	recs, err := s.Records()
	if err != nil {
		return nil, err
	}
	var hit *Record
	for i := range recs {
		if recs[i].ID == id {
			return &recs[i], nil
		}
		if len(id) >= 4 && len(recs[i].ID) >= len(id) && recs[i].ID[:len(id)] == id {
			if hit != nil {
				return nil, fmt.Errorf("ledger: id %q is ambiguous", id)
			}
			hit = &recs[i]
		}
	}
	if hit == nil {
		return nil, fmt.Errorf("ledger: no record %q", id)
	}
	return hit, nil
}
