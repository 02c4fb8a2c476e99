package load

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sbprivacy/tools/sbcheck/analysis"
)

// TestModuleDiscovery checks the loader anchors itself at the module
// root and reads the module path from go.mod.
func TestModuleDiscovery(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if l.ModPath != "sbprivacy" {
		t.Errorf("ModPath = %q, want sbprivacy", l.ModPath)
	}
}

// TestDeterministicMarker checks that the directive-form marker before
// the package clause opts a package in, and that packages without it
// stay out.
func TestDeterministicMarker(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	marked, err := l.LoadDir("internal/workload")
	if err != nil {
		t.Fatalf("load workload: %v", err)
	}
	if !marked.Deterministic {
		t.Errorf("internal/workload not detected as deterministic")
	}
	unmarked, err := l.LoadDir("internal/probestore")
	if err != nil {
		t.Fatalf("load probestore: %v", err)
	}
	if unmarked.Deterministic {
		t.Errorf("internal/probestore detected as deterministic; it is not marked")
	}
}

// TestIgnoreParsing checks suppression comments parse into analyzer +
// reason, with the fixture want-marker suffix stripped.
func TestIgnoreParsing(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir("tools/sbcheck/testdata/src/ignore")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	byAnalyzer := map[string][]Ignore{}
	for _, ig := range pkg.Ignores {
		byAnalyzer[ig.Analyzer] = append(byAnalyzer[ig.Analyzer], ig)
	}
	det := byAnalyzer["detclock"]
	if len(det) != 3 {
		t.Fatalf("detclock ignores = %d, want 3 (%+v)", len(det), det)
	}
	reasons := 0
	for _, ig := range det {
		if ig.Reason != "" {
			reasons++
			if !strings.Contains(ig.Reason, "fixture demonstrating") {
				t.Errorf("unexpected reason %q", ig.Reason)
			}
		}
	}
	if reasons != 2 {
		t.Errorf("justified detclock ignores = %d, want 2", reasons)
	}
	if len(byAnalyzer["clockdet"]) != 1 {
		t.Errorf("expected one ignore naming unknown analyzer clockdet, got %+v", byAnalyzer["clockdet"])
	}
}

// TestCheckIgnores checks the driver diagnostics for malformed
// suppressions: missing analyzer, unknown analyzer, missing reason.
func TestCheckIgnores(t *testing.T) {
	known := map[string]bool{"detclock": true}
	igs := []Ignore{
		{Pos: token.Pos(1)},
		{Pos: token.Pos(2), Analyzer: "nosuch", Reason: "whatever"},
		{Pos: token.Pos(3), Analyzer: "detclock"},
		{Pos: token.Pos(4), Analyzer: "detclock", Reason: "fine"},
	}
	diags := CheckIgnores(igs, known)
	if len(diags) != 3 {
		t.Fatalf("diagnostics = %d, want 3: %+v", len(diags), diags)
	}
	for i, want := range []string{"must name an analyzer", "unknown analyzer", "needs a justification"} {
		if !strings.Contains(diags[i].Message, want) {
			t.Errorf("diag %d = %q, want substring %q", i, diags[i].Message, want)
		}
	}
}

// TestSuppress checks line and line-above matching, and that
// reason-less ignores never suppress.
func TestSuppress(t *testing.T) {
	fset := token.NewFileSet()
	f := fset.AddFile("x.go", -1, 100)
	for i := 1; i < 100; i++ {
		f.AddLine(i)
	}
	posAt := func(line int) token.Pos { return f.LineStart(line) }
	diags := []analysis.Diagnostic{
		{Pos: posAt(5), Message: "same line"},
		{Pos: posAt(10), Message: "line above"},
		{Pos: posAt(20), Message: "no reason"},
		{Pos: posAt(30), Message: "wrong analyzer"},
	}
	igs := []Ignore{
		{File: "x.go", Line: 5, Analyzer: "a", Reason: "r"},
		{File: "x.go", Line: 9, Analyzer: "a", Reason: "r"},
		{File: "x.go", Line: 20, Analyzer: "a"},
		{File: "x.go", Line: 30, Analyzer: "b", Reason: "r"},
	}
	kept := Suppress(fset, igs, "a", diags)
	if len(kept) != 2 {
		t.Fatalf("kept = %d, want 2: %+v", len(kept), kept)
	}
	if kept[0].Message != "no reason" || kept[1].Message != "wrong analyzer" {
		t.Errorf("kept wrong diagnostics: %+v", kept)
	}
}

// TestXTestSeesExportTest checks that an external test package is
// type-checked the way the go tool builds it: it sees what the
// package's export_test.go exports, and a module package it imports
// that itself imports the package under test hands it values of the
// same types.
func TestXTestSeesExportTest(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":              "module tmpmod\n\ngo 1.22\n",
		"foo/foo.go":          "package foo\n\ntype T struct{ n int }\n\nfunc secret() int { return 42 }\n",
		"foo/export_test.go":  "package foo\n\nvar SecretForTest = secret\n",
		"foo/foo_ext_test.go": "package foo_test\n\nimport (\n\t\"tmpmod/bar\"\n\t\"tmpmod/foo\"\n)\n\nvar _ foo.T = bar.Make()\n\nvar _ = foo.SecretForTest()\n",
		"bar/bar.go":          "package bar\n\nimport \"tmpmod/foo\"\n\nfunc Make() foo.T { return foo.T{} }\n",
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir("foo")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if pkg.XTest == nil || pkg.XTest.Types.Name() != "foo_test" {
		t.Fatalf("XTest = %+v, want package foo_test", pkg.XTest)
	}
}
