package spacesim

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// oracles are the declarations and packages outside _test.go files that
// only tests reach, kept because another package's tests check other code
// against them. A key is a package directory ("internal/gravity/seedref") or
// a declaration in one ("internal/gravity.Direct",
// "internal/gravity.SoA.Rows"); the value says what it checks.
var oracles = map[string]string{
	"internal/gravity/seedref":         "the seed's sqrt-and-divide loops that htree's and core's digest tests hold the kernels to",
	"internal/gravity.Direct":          "direct summation, the force truth of the htree, core and sph accuracy tests",
	"internal/gravity.PotentialEnergy": "the pairwise potential energy of core's virial check on its initial conditions",
	"internal/gravity.SoA.Rows":        "hands a sorted body list to seedref in core's walk-list digest test",
	"internal/htree.Tree.AccelAll":     "the one-walk-per-body forces core's grouped-walk tests compare with",
	"internal/htree.Grouping":          "sets the sink grouping that core's and gravity's pinned digests were recorded under",
	"internal/faults.Manual":           "places crashes at fixed virtual times for core's restart tests",
	"internal/mp.ABM.Outstanding":      "the in-flight count core's fetch tests assert drains to zero",
}

// stdlibMethods are method names of standard-library interfaces (error,
// errors.Unwrap, fmt.Stringer, http.Handler): the standard library calls
// them, so the module need not name them. A method for another such
// interface adds its name here.
var stdlibMethods = map[string]bool{
	"Error": true, "Unwrap": true, "String": true, "ServeHTTP": true,
}

// TestReachable fails on a package under internal/ that no command, example
// or bench/ imports, directly or through other packages, and on a function,
// method, or package-level constant or variable declared outside _test.go
// whose name no other non-test code in the module references. bench/ counts
// as a caller, but its own declarations are not checked. A hit is deleted
// with the tests that test only it, moved into its package's _test.go files
// when that package's tests use it to check other code, or listed in oracles
// when other packages' tests do.
//
// The check matches by name, not by type: a dead function that shares its
// name with one that is used, a field or a local variable is not found.
func TestReachable(t *testing.T) {
	src := map[string][]byte{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || p == "go.mod" {
			b, err := os.ReadFile(p)
			src[filepath.ToSlash(p)] = b
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	problems, err := unreached(src, oracles)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestReachableChecker runs the checker on small in-memory modules, one per
// kind of declaration it must flag or pass.
func TestReachableChecker(t *testing.T) {
	const gomod = "module m\n"
	main := "package main\n\nimport \"m/internal/a\"\n\nfunc main() { a.Used() }\n"
	cases := []struct {
		name    string
		src     map[string]string
		oracles map[string]string
		want    []string
	}{
		{
			name: "dead function",
			src: map[string]string{
				"internal/a/a.go": "package a\n\nfunc Used() {}\n\nfunc Dead() {}\n",
			},
			want: []string{"internal/a.Dead"},
		},
		{
			name: "function only a test calls",
			src: map[string]string{
				"internal/a/a.go":      "package a\n\nfunc Used() {}\n\nfunc TestOnly() {}\n",
				"internal/a/a_test.go": "package a\n\nimport \"testing\"\n\nfunc TestA(t *testing.T) { TestOnly() }\n",
			},
			want: []string{"internal/a.TestOnly"},
		},
		{
			name: "helper declared in a _test.go file",
			src: map[string]string{
				"internal/a/a.go":         "package a\n\nfunc Used() {}\n",
				"internal/a/help_test.go": "package a\n\nfunc helper() int { return 1 }\n",
				"internal/a/a_test.go":    "package a\n\nimport \"testing\"\n\nfunc TestA(t *testing.T) { _ = helper() }\n",
			},
		},
		{
			name: "method reached through a repo interface",
			src: map[string]string{
				"internal/a/a.go": "package a\n\ntype runner interface{ Run() }\n\ntype T struct{}\n\nfunc (T) Run() {}\n\n" +
					"func Used() { var r runner = T{}; r.Run() }\n",
			},
		},
		{
			name: "stdlib-interface method",
			src: map[string]string{
				"internal/a/a.go": "package a\n\ntype E struct{}\n\nfunc (E) Error() string { return \"e\" }\n\nfunc Used() error { return E{} }\n",
			},
		},
		{
			name: "oracle-table entry",
			src: map[string]string{
				"internal/a/a.go":      "package a\n\nfunc Used() {}\n\nfunc Truth() int { return 1 }\n",
				"internal/b/b.go":      "package b\n",
				"internal/b/b_test.go": "package b\n\nimport (\n\t\"m/internal/a\"\n\t\"testing\"\n)\n\nfunc TestB(t *testing.T) { _ = a.Truth() }\n",
				"cmd/c/main.go":        "package main\n\nimport _ \"m/internal/b\"\n",
			},
			oracles: map[string]string{"internal/a.Truth": "the truth b's test checks against"},
		},
		{
			name: "package nothing imports",
			src: map[string]string{
				"internal/a/a.go":         "package a\n\nfunc Used() {}\n",
				"internal/lone/l.go":      "package lone\n",
				"internal/lone/l_test.go": "package lone\n",
			},
			want: []string{"package internal/lone"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := map[string][]byte{"go.mod": []byte(gomod), "cmd/m/main.go": []byte(main)}
			for p, s := range c.src {
				src[p] = []byte(s)
			}
			problems, err := unreached(src, c.oracles)
			if err != nil {
				t.Fatal(err)
			}
			if len(problems) != len(c.want) {
				t.Fatalf("flagged %q, want %d findings naming %q", problems, len(c.want), c.want)
			}
			for i, w := range c.want {
				if !strings.HasPrefix(problems[i], w+":") {
					t.Errorf("finding %d is %q, want it to name %s", i, problems[i], w)
				}
			}
		})
	}
}

// A decl is one checked declaration: its key ("dir.Name" or
// "dir.Recv.Name"), its name, the node whose span holds its own references
// to itself, and whether non-test code outside that span names it.
type decl struct {
	key, name, dir string
	method, used   bool
	node           ast.Node
}

// unreached returns one line per unreachable package, unreached
// declaration and stale or unjustified oracle entry in the module whose
// files src holds (slash paths relative to the module root, go.mod among
// them), sorted.
func unreached(src map[string][]byte, oracles map[string]string) ([]string, error) {
	module := ""
	for _, line := range strings.Split(string(src["go.mod"]), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			module = f[1]
		}
	}
	if module == "" {
		return nil, fmt.Errorf("go.mod names no module")
	}

	fset := token.NewFileSet()
	imports := map[string][]string{}     // package dir -> dirs its non-test files import
	testImports := map[string][]string{} // package dir -> dirs its test files import
	refs := map[string][]token.Pos{}     // name -> non-test references
	testRefs := map[string][]string{}    // name -> dirs of test files referring to it
	pkgs := map[string]bool{}
	var decls []decl
	var paths []string
	for p := range src {
		if strings.HasSuffix(p, ".go") {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, src[p], parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		dir, test := path.Dir(p), strings.HasSuffix(p, "_test.go")
		pkgs[dir] = true
		for _, im := range f.Imports {
			ip := strings.Trim(im.Path.Value, `"`)
			if rel, ok := strings.CutPrefix(ip, module+"/"); ok {
				if test {
					testImports[dir] = append(testImports[dir], rel)
				} else {
					imports[dir] = append(imports[dir], rel)
				}
			}
		}
		names := declNames(f)
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || names[id] {
				return true
			}
			if test {
				testRefs[id.Name] = append(testRefs[id.Name], dir)
			} else {
				refs[id.Name] = append(refs[id.Name], id.Pos())
			}
			return true
		})
		if !test && dir != "bench" && !strings.HasPrefix(dir, "bench/") {
			decls = append(decls, checked(f, dir)...)
		}
	}

	var problems []string
	reached := map[string]bool{}
	var visit func(string)
	visit = func(dir string) {
		if !reached[dir] {
			reached[dir] = true
			for _, d := range imports[dir] {
				visit(d)
			}
		}
	}
	for dir := range pkgs {
		if dir == "bench" || strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "examples/") {
			visit(dir)
		}
	}
	for dir := range pkgs {
		if strings.HasPrefix(dir, "internal/") && !reached[dir] && oracles[dir] == "" {
			problems = append(problems, "package "+dir+": no command, example or bench/ imports it")
		}
	}

	found := map[string]*decl{}
	for i := range decls {
		d := &decls[i]
		found[d.key] = d
		if d.method && stdlibMethods[d.name] || oracles[d.dir] != "" {
			continue
		}
		for _, pos := range refs[d.name] {
			d.used = d.used || pos < d.node.Pos() || pos >= d.node.End()
		}
		if !d.used && oracles[d.key] == "" {
			problems = append(problems, d.key+": no caller outside _test.go files")
		}
	}

	for key, reason := range oracles {
		var dir string
		var live bool
		var users []string // directories of the test files that use it
		if d, ok := found[key]; ok {
			dir, live, users = d.dir, d.used, testRefs[d.name]
		} else if pkgs[key] {
			dir, live = key, reached[key]
			for d, ims := range testImports {
				if slices.Contains(ims, key) {
					users = append(users, d)
				}
			}
		} else {
			problems = append(problems, key+": oracle entry names no package or declaration")
			continue
		}
		switch {
		case strings.TrimSpace(reason) == "":
			problems = append(problems, key+": oracle entry gives no reason")
		case live:
			problems = append(problems, key+": listed as an oracle, but non-test code reaches it")
		case !slices.ContainsFunc(users, func(u string) bool { return u != dir }):
			problems = append(problems, key+": listed as an oracle, but no test outside "+dir+" uses it")
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// declNames is the set of identifiers in f that name what they declare
// (functions, methods, types, constants, variables, fields, interface
// methods, the package and import aliases) rather than refer to it.
func declNames(f *ast.File) map[*ast.Ident]bool {
	names := map[*ast.Ident]bool{f.Name: true}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			names[n.Name] = true
		case *ast.TypeSpec:
			names[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				names[id] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				names[id] = true
			}
		case *ast.ImportSpec:
			if n.Name != nil {
				names[n.Name] = true
			}
		}
		return true
	})
	return names
}

// checked lists the top-level functions, methods, constants and variables
// of a non-test file in dir; main, init and the blank name are reached by
// definition.
func checked(f *ast.File, dir string) []decl {
	var out []decl
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			if d.Recv == nil && (name == "main" || name == "init") || name == "_" {
				continue
			}
			key := dir + "." + name
			if d.Recv != nil {
				key = dir + "." + recvType(d.Recv.List[0].Type) + "." + name
			}
			out = append(out, decl{key: key, name: name, dir: dir, method: d.Recv != nil, node: d})
		case *ast.GenDecl:
			if d.Tok != token.CONST && d.Tok != token.VAR {
				continue
			}
			for _, s := range d.Specs {
				for _, id := range s.(*ast.ValueSpec).Names {
					if id.Name != "_" {
						out = append(out, decl{key: dir + "." + id.Name, name: id.Name, dir: dir, node: s})
					}
				}
			}
		}
	}
	return out
}

// recvType is the name of a receiver's type, without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
