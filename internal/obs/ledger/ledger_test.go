package ledger

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
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
	// A preset digest that disagrees with the config is overwritten.
	first := testRecord("analyze", map[string]float64{"makespan_sec": 1.5})
	first.ConfigDigest = "stale"
	id1, err := s.Append(first, map[string][]byte{"ANALYSIS.json": art})
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
	if recs[0].ConfigDigest != recs[1].ConfigDigest {
		t.Fatalf("config digests differ for identical configs: %q vs %q",
			recs[0].ConfigDigest, recs[1].ConfigDigest)
	}
	for _, r := range recs {
		if r.SchemaVersion != SchemaVersion {
			t.Fatalf("record %s: schema_version %d, want %d", r.ID, r.SchemaVersion, SchemaVersion)
		}
		if r.ConfigDigest != r.Config.Digest() {
			t.Fatalf("record %s: config digest %.12s does not match its config (%.12s)",
				r.ID, r.ConfigDigest, r.Config.Digest())
		}
		if r.TimeUnixNS <= 0 {
			t.Fatalf("record %s: append time %d, want > 0", r.ID, r.TimeUnixNS)
		}
		if r.Build.GoVersion == "" || r.Build.Hostname == "" {
			t.Fatalf("record %s: provenance missing go_version or hostname", r.ID)
		}
		if len(r.Artifacts) != 1 {
			t.Fatalf("record %s: %d artifacts, want 1", r.ID, len(r.Artifacts))
		}
		for name, digest := range r.Artifacts {
			if _, err := s.ReadBlob(digest); err != nil {
				t.Fatalf("record %s: artifact %s: %v", r.ID, name, err)
			}
		}
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
	// Storing the same bytes again repairs it.
	if d3, err := s.PutBlob(data); err != nil || d3 != d1 {
		t.Fatalf("re-store: digest %s, err %v; want %s", d3, err, d1)
	}
	if back, err := s.ReadBlob(d1); err != nil || string(back) != string(data) {
		t.Fatalf("blob after re-store: %q, %v", back, err)
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

// tornIndexes are index files with and without a crash mid-append, and
// what Records must make of each.
const (
	indexGood1 = `{"schema_version":1,"id":"aaaaaaaaaaaa","time_unix_ns":1,"config_digest":"d1","config":{"tool":"ssbench"},"build":{},"metrics":{"makespan_sec":1.5}}`
	indexGood2 = `{"schema_version":1,"id":"bbbbbbbbbbbb","time_unix_ns":2,"config_digest":"d1","config":{"tool":"ssbench"},"build":{},"metrics":{"makespan_sec":1.6}}`
	indexTorn  = `{"schema_version":1,"id":"cccccccccccc","time_un` // crash mid-append
	// indexCorrupt is whole JSON with a stray brace after it: no crash
	// leaves that.
	indexCorrupt = `{"schema_version":1,"id":"cccccccccccc"}}`
)

var tornIndexes = []struct {
	name    string
	index   string
	wantIDs []string
	wantErr bool
}{
	{name: "all valid", index: indexGood1 + "\n" + indexGood2 + "\n",
		wantIDs: []string{"aaaaaaaaaaaa", "bbbbbbbbbbbb"}},
	{name: "torn final line skipped", index: indexGood1 + "\n" + indexGood2 + "\n" + indexTorn,
		wantIDs: []string{"aaaaaaaaaaaa", "bbbbbbbbbbbb"}},
	{name: "torn final line no newline before", index: indexGood1 + "\n" + indexTorn,
		wantIDs: []string{"aaaaaaaaaaaa"}},
	{name: "corrupt middle line errors", index: indexGood1 + "\n" + indexCorrupt + "\n" + indexGood2 + "\n",
		wantErr: true},
	{name: "torn middle line skipped", index: indexGood1 + "\n" + indexTorn + "\n" + indexGood2 + "\n",
		wantIDs: []string{"aaaaaaaaaaaa", "bbbbbbbbbbbb"}},
	{name: "empty index", index: "", wantIDs: nil},
	{name: "blank lines only", index: "\n\n", wantIDs: nil},
	{name: "trailing blank line after torn", index: indexGood1 + "\n" + indexTorn + "\n\n",
		wantIDs: []string{"aaaaaaaaaaaa"}},
}

func TestRecordsTornWriteTolerance(t *testing.T) {
	for _, tc := range tornIndexes {
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

// A writer that dies mid-append costs only its own record: the appends
// after the fragment and the reads after them keep every whole record.
func TestAppendAfterTornRecord(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	appendOne := func() {
		id, err := s.Append(testRecord(fmt.Sprint("run", len(want)), nil), nil)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, id)
	}
	appendOne()
	f, err := os.OpenFile(s.IndexPath(), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"schema_version":1,"id"`); err != nil { // 24 bytes
		t.Fatal(err)
	}
	f.Close()
	appendOne()
	appendOne()
	recs, err := s.Records()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range recs {
		got = append(got, r.ID)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("records %v, appended %v", got, want)
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

// What AppendJSONL writes, ReadJSONL reads back: one line per value, in
// append order, whole, across handles (reopening appends, never truncates).
func TestAppendJSONLRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	want := []map[string]int{{"a": 1}, {"b": 2}, {}}
	for _, vs := range [][]map[string]int{want[:1], want[1:]} {
		f, err := OpenJSONL(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			if err := AppendJSONL(f, v); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var got []map[string]int
	torn, err := ReadJSONL(path, func(line []byte) error {
		var m map[string]int
		if err := json.Unmarshal(line, &m); err != nil {
			return err
		}
		got = append(got, m)
		return nil
	})
	if err != nil || torn {
		t.Fatalf("read back: torn=%v err=%v", torn, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read back %v, appended %v", got, want)
	}
}

// FuzzReadJSONL feeds ReadJSONL arbitrary files, seeded from
// TestReadJSONLTornReported and the indexes of TestRecordsTornWriteTolerance,
// with a reader that rejects what is not JSON. It must never panic, and its
// answer must follow from the file's non-empty lines: they reach the reader
// whole and in order, a clean read accepted every one, a torn read rejected
// only lines that break off inside a value and perhaps the last, and an
// error stops at a rejected line that is neither.
func FuzzReadJSONL(f *testing.F) {
	f.Add([]byte("{\"a\":1}\n{\"bro"))
	for _, tc := range tornIndexes {
		f.Add([]byte(tc.index))
	}
	f.Add([]byte("{}\r\n\r\n[1]\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var seen []string
		rejected, whole := -1, -1 // the last rejected line, and the last that does not break off
		torn, err := ReadJSONL(path, func(line []byte) error {
			seen = append(seen, string(line))
			if !json.Valid(line) {
				rejected = len(seen) - 1
				var v json.RawMessage
				if json.NewDecoder(bytes.NewReader(line)).Decode(&v) != io.ErrUnexpectedEOF {
					whole = rejected
				}
				return errors.New("not JSON")
			}
			return nil
		})
		// The non-empty lines as bufio.ScanLines cuts them: at each
		// newline, dropping one carriage return before it.
		var lines []string
		for _, l := range strings.Split(string(data), "\n") {
			if l = strings.TrimSuffix(l, "\r"); l != "" {
				lines = append(lines, l)
			}
		}
		if len(seen) > len(lines) {
			t.Fatalf("reader saw %d lines of %d", len(seen), len(lines))
		}
		for i := range seen {
			if seen[i] != lines[i] {
				t.Fatalf("line %d reached the reader as %q, want %q", i, seen[i], lines[i])
			}
		}
		last := len(lines) - 1
		switch {
		case err != nil:
			if whole < 0 || whole != len(seen)-1 || whole == last {
				t.Fatalf("error %v after %d of %d lines, last whole rejected %d", err, len(seen), len(lines), whole)
			}
		case len(seen) != len(lines):
			t.Fatalf("clean read saw %d of %d lines", len(seen), len(lines))
		case torn != (rejected >= 0) || (whole >= 0 && whole != last):
			t.Fatalf("torn %v, but line %d of %d was rejected (%d whole)", torn, rejected, len(lines), whole)
		}
	})
}
