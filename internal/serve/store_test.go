package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"spacesim/internal/obs/ledger"
)

// runToDone submits smallSpec() to s, waits for the job to finish and returns
// its view.
func runToDone(t *testing.T, s *Server) jobView {
	t.Helper()
	v, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	return waitJob(t, s, v.ID, StateDone)
}

// A result is computed once per result store: a server opened later on the
// same state directory answers the spec from the first one's ledger record,
// and so does a server on another state directory that shares Config.Ledger.
func TestStoredResultHitsAcrossServers(t *testing.T) {
	st, err := ledger.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, c := range []struct {
		name         string
		first, again string
		cfg          func(*Config)
	}{
		{"same state directory", dir, dir, nil},
		{"shared ledger", t.TempDir(), t.TempDir(), func(c *Config) { c.Ledger = st }},
	} {
		a := newTestServer(t, c.first, c.cfg)
		computed := runToDone(t, a)
		a.Drain()
		if computed.CacheHit {
			t.Fatalf("%s: first computation marked as a cache hit", c.name)
		}
		b := newTestServer(t, c.again, c.cfg)
		hit := runToDone(t, b)
		b.Drain()
		if !hit.CacheHit || hit.ResultDigest != computed.ResultDigest {
			t.Fatalf("%s: second server: cache hit %v, digest %s; computed %s",
				c.name, hit.CacheHit, hit.ResultDigest, computed.ResultDigest)
		}
	}
}

// A JOB.json blob that no longer hashes to its name is a miss: the
// resubmission recomputes to the same result, stores the blob again, and the
// artifact endpoint serves intact bytes.
func TestDamagedArtifactRecomputes(t *testing.T) {
	s := newTestServer(t, t.TempDir(), nil)
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := runToDone(t, s)
	s.mu.Lock()
	blob := s.artifacts[first.ConfigDigest].blob
	s.mu.Unlock()
	if err := os.WriteFile(s.runs.BlobPath(blob), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	again := runToDone(t, s)
	if again.CacheHit {
		t.Fatal("damaged artifact answered as a cache hit")
	}
	if again.ResultDigest != first.ResultDigest {
		t.Fatalf("recompute digest %s, first %s", again.ResultDigest, first.ResultDigest)
	}
	s.mu.Lock()
	stored := s.artifacts[first.ConfigDigest].blob
	s.mu.Unlock()
	if stored != blob {
		t.Fatalf("recompute stored blob %s, first %s: the artifact is not deterministic", stored, blob)
	}
	for _, id := range []string{first.ID, again.ID} {
		resp, err := http.Get(ts.URL + "/jobs/" + id + "/artifact")
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET artifact of %s: %d %v", id, resp.StatusCode, err)
		}
		var a Artifact
		if ledger.BlobDigest(data) != blob || json.Unmarshal(data, &a) != nil ||
			a.ResultDigest != first.ResultDigest {
			t.Fatalf("artifact of %s is not the intact blob %s", id, blob)
		}
	}
}
