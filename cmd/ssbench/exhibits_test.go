package main

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"

	"spacesim/internal/obs"
)

func TestMain(m *testing.M) {
	runObs = obs.New(false)
	os.Exit(m.Run())
}

// TestRowCheck pins the band check itself.
func TestRowCheck(t *testing.T) {
	in := near("x", 100, 0.1, "", nil)
	for _, c := range []struct {
		name    string
		r       row
		v       float64
		verdict string
		ok      bool
	}{
		{"inside the band", in, 109, "ok", true},
		{"on the band's edge", in, 90, "ok", true},
		{"outside the band", in, 111, "**out of band**", false},
		{"a run that failed", in, math.NaN(), "**out of band**", false},
		{"a shape claim held", shape("x", 1, math.Inf(1), "", nil), 1.3, "ok", true},
		{"a shape claim broken", shape("x", 1, math.Inf(1), "", nil), 0.9, "**out of band**", false},
		{"deviates with a reason", in.deviates("not modeled"), 500, "deviates: not modeled", true},
		{"deviates without a reason", in.deviates(""), 100, "deviates: ", false},
	} {
		if verdict, ok := c.r.check(c.v); verdict != c.verdict || ok != c.ok {
			t.Errorf("%s: check(%g) = %q, %v; want %q, %v", c.name, c.v, verdict, ok, c.verdict, c.ok)
		}
	}
}

// TestEveryExhibitHasRows checks the registry against the paper's
// evaluation (DESIGN.md §4): every exhibit has a row, ids are unique, every
// deviation says why and every row says what it models.
func TestEveryExhibitHasRows(t *testing.T) {
	want := map[string]bool{}
	for _, name := range strings.Fields("table1 table2 table3 table4 table5 table6 table7 fig2 fig3 fig4 fig5 fig6 fig7 fig8 s2.1 s3.1 s3.5 s5") {
		want[name] = true
	}
	seen := map[string]bool{}
	for _, e := range exhibits(true) {
		if !want[e.name] || len(e.rows) == 0 {
			t.Errorf("exhibit %q: unknown or without rows", e.name)
		}
		delete(want, e.name)
		for _, r := range e.rows {
			id := e.name + "/" + r.id
			if seen[id] || r.what == "" || (r.dev && r.why == "") {
				t.Errorf("%s: duplicate id, no modeled/run line, or a deviation without a reason", id)
			}
			seen[id] = true
		}
	}
	for name := range want {
		t.Errorf("exhibit %s has no rows", name)
	}
}

// TestExhibitsQuick computes every row at -quick size and fails on a row
// that leaves its band.
func TestExhibitsQuick(t *testing.T) {
	for _, e := range exhibits(true) {
		for _, r := range e.rows {
			if r.full {
				continue
			}
			v := r.get()
			if verdict, ok := r.check(v); !ok {
				t.Errorf("%s/%s = %g, band %s: %s", e.name, r.id, v, r.band, verdict)
			}
		}
	}
}

// TestRenderReproducible renders the -quick registry twice in one process:
// the bytes must not differ (map order, rank schedules).
func TestRenderReproducible(t *testing.T) {
	var a, b bytes.Buffer
	if matched, ok := render(&a, "all", true); !matched || !ok {
		t.Fatalf("render all: matched %v, ok %v", matched, ok)
	}
	render(&b, "all", true)
	if a.String() != b.String() {
		t.Fatalf("two renders differ:\n%s\n---\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), "| table4/BT | 63044 | — | ±40% | skipped at -quick |") {
		t.Error("table4's 256-rank rows are not skipped at -quick")
	}
}

// TestRenderSelectsByPrefix pins `ssbench <prefix>`.
func TestRenderSelectsByPrefix(t *testing.T) {
	var b bytes.Buffer
	if matched, ok := render(&b, "table3/CG", true); !matched || !ok {
		t.Fatalf("table3/CG: matched %v, ok %v", matched, ok)
	}
	if rows := strings.Count(b.String(), "\n| table3/"); rows != 1 {
		t.Errorf("table3/CG printed %d rows:\n%s", rows, b.String())
	}
	if matched, _ := render(&b, "table9", true); matched {
		t.Error("table9 matched a row")
	}
}

// BenchmarkExhibits computes each row as a sub-benchmark, at -quick size
// under -short and at full size otherwise, and reports its value.
func BenchmarkExhibits(b *testing.B) {
	quick := testing.Short()
	for ei, e := range exhibits(quick) {
		for ri, r := range e.rows {
			b.Run(e.name+"/"+r.id, func(b *testing.B) {
				if r.full && quick {
					b.Skip("runs at full size only")
				}
				var v float64
				for i := 0; i < b.N; i++ {
					v = exhibits(quick)[ei].rows[ri].get()
				}
				b.ReportMetric(v, "value")
			})
		}
	}
}

// TestDeviationsNamedInDesign reads the registry and DESIGN.md §16: every
// row marked deviates must be named there, as `exhibit/id`, so a reader of
// the design learns what to distrust.
func TestDeviationsNamedInDesign(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(design), "\n## 16. ")
	if !ok {
		t.Fatal("DESIGN.md has no §16")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	n := 0
	for _, e := range exhibits(true) {
		for _, r := range e.rows {
			if !r.dev {
				continue
			}
			n++
			if id := e.name + "/" + r.id; !strings.Contains(sec, "`"+id+"`") {
				t.Errorf("%s deviates but DESIGN.md §16 does not name it", id)
			}
		}
	}
	if n == 0 {
		t.Fatal("no row deviates: the walk read nothing")
	}
}
