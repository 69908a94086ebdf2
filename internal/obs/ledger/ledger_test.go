package ledger

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testRecord(exp string, metrics map[string]float64) *Record {
	return &Record{
		Config: Config{Tool: "ssbench", Experiment: exp, N: 4096, Ranks: 4,
			Engine: "event", Workers: 4, Seed: 1},
		Build:   Prov(),
		Metrics: metrics,
	}
}

func TestAppendAndRecordsRoundtrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	art := []byte(`{"critical_path":{},"makespan_sec":1.5,"schema_version":2}`)
	id1, err := s.Append(testRecord("analyze", map[string]float64{"makespan_sec": 1.5}),
		map[string][]byte{"ANALYSIS.json": art})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Append(testRecord("analyze", map[string]float64{"makespan_sec": 1.6}),
		map[string][]byte{"ANALYSIS.json": art})
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Fatalf("distinct appends share id %s", id1)
	}
	recs, err := s.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].ID != id1 || recs[1].ID != id2 {
		t.Fatalf("order/id mismatch: %s %s vs %s %s", recs[0].ID, recs[1].ID, id1, id2)
	}
	if recs[0].ConfigDigest == "" || recs[0].ConfigDigest != recs[1].ConfigDigest {
		t.Fatalf("config digests differ for identical configs: %q vs %q",
			recs[0].ConfigDigest, recs[1].ConfigDigest)
	}
	if recs[0].SchemaVersion != SchemaVersion {
		t.Fatalf("schema_version %d, want %d", recs[0].SchemaVersion, SchemaVersion)
	}
	if recs[0].Metrics["makespan_sec"] != 1.5 {
		t.Fatalf("metrics lost in roundtrip: %v", recs[0].Metrics)
	}
}

func TestBlobsContentAddressedAndVerified(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(`{"critical_path":{},"makespan_sec":2}`)
	d1, err := s.PutBlob(data)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := s.PutBlob(data)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("identical bytes got two digests: %s %s", d1, d2)
	}
	entries, err := os.ReadDir(filepath.Join(s.Dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("blob dir has %d entries, want 1 (dedup)", len(entries))
	}
	back, err := s.ReadBlob(d1)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(data) {
		t.Fatalf("blob roundtrip mismatch")
	}
	// Corrupt the blob on disk: ReadBlob must refuse it.
	if err := os.WriteFile(s.BlobPath(d1), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadBlob(d1); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("tampered blob read err = %v, want corrupt error", err)
	}
}

func TestFindByPrefix(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Append(testRecord("group", nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{id, id[:6]} {
		rec, err := s.Find(q)
		if err != nil {
			t.Fatalf("Find(%q): %v", q, err)
		}
		if rec.ID != id {
			t.Fatalf("Find(%q) = %s, want %s", q, rec.ID, id)
		}
	}
	if _, err := s.Find("ffffff"); err == nil {
		t.Fatal("Find of unknown id succeeded")
	}
}

func TestRecordsEmptyLedger(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := s.Records()
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty ledger: recs=%v err=%v", recs, err)
	}
}

func TestRecordsTornWriteTolerance(t *testing.T) {
	good1 := `{"schema_version":1,"id":"aaaaaaaaaaaa","time_unix_ns":1,"config_digest":"d1","config":{"tool":"ssbench"},"build":{},"metrics":{"makespan_sec":1.5}}`
	good2 := `{"schema_version":1,"id":"bbbbbbbbbbbb","time_unix_ns":2,"config_digest":"d1","config":{"tool":"ssbench"},"build":{},"metrics":{"makespan_sec":1.6}}`
	torn := `{"schema_version":1,"id":"cccccccccccc","time_un` // crash mid-append

	cases := []struct {
		name    string
		index   string
		wantIDs []string
		wantErr bool
	}{
		{name: "all valid", index: good1 + "\n" + good2 + "\n",
			wantIDs: []string{"aaaaaaaaaaaa", "bbbbbbbbbbbb"}},
		{name: "torn final line skipped", index: good1 + "\n" + good2 + "\n" + torn,
			wantIDs: []string{"aaaaaaaaaaaa", "bbbbbbbbbbbb"}},
		{name: "torn final line no newline before", index: good1 + "\n" + torn,
			wantIDs: []string{"aaaaaaaaaaaa"}},
		{name: "corrupt middle line errors", index: good1 + "\n" + torn + "\n" + good2 + "\n",
			wantErr: true},
		{name: "empty index", index: "", wantIDs: nil},
		{name: "blank lines only", index: "\n\n", wantIDs: nil},
		{name: "trailing blank line after torn", index: good1 + "\n" + torn + "\n\n",
			wantIDs: []string{"aaaaaaaaaaaa"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.IndexPath(), []byte(tc.index), 0o644); err != nil {
				t.Fatal(err)
			}
			recs, err := s.Records()
			if tc.wantErr {
				if err == nil {
					t.Fatalf("Records() = %d records, want error", len(recs))
				}
				if !strings.Contains(err.Error(), "line 2") {
					t.Fatalf("error %q does not name the corrupt line", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Records(): %v", err)
			}
			if len(recs) != len(tc.wantIDs) {
				t.Fatalf("got %d records, want %d", len(recs), len(tc.wantIDs))
			}
			for i, id := range tc.wantIDs {
				if recs[i].ID != id {
					t.Fatalf("record %d id = %s, want %s", i, recs[i].ID, id)
				}
			}
		})
	}
}

func TestReadJSONLTornReported(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	if err := os.WriteFile(path, []byte("{\"a\":1}\n{\"bro"), 0o644); err != nil {
		t.Fatal(err)
	}
	var lines int
	torn, err := ReadJSONL(path, func(line []byte) error {
		var m map[string]int
		if err := json.Unmarshal(line, &m); err != nil {
			return err
		}
		lines++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !torn {
		t.Fatal("torn tail not reported")
	}
	if lines != 1 {
		t.Fatalf("fn accepted %d lines, want 1", lines)
	}
	// A missing file is an empty, untorn read.
	torn, err = ReadJSONL(filepath.Join(dir, "absent.jsonl"), func([]byte) error { return nil })
	if err != nil || torn {
		t.Fatalf("missing file: torn=%v err=%v", torn, err)
	}
}
