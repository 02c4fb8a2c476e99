// Package load type-checks this module's packages without the go/packages
// machinery (the build environment is offline and the module vendors no
// dependencies). Imports inside the module resolve by mapping the import
// path onto a directory; everything else — the standard library — goes
// through go/importer's source importer, which type-checks GOROOT
// packages from source.
//
// The loader also extracts the two sbcheck source markers:
//
//   - a package opts into the determinism analyzers with a
//     "//sbcheck:deterministic" comment placed before the package clause
//     of any non-test file;
//   - a single finding is waived with an inline
//     "//sbcheck:ignore <analyzer> <reason>" comment on the offending
//     line or the line above it. The reason is mandatory: an ignore
//     without one is itself a diagnostic (see CheckIgnores).
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"sbprivacy/tools/sbcheck/analysis"
)

// DeterministicMarker is the comment text that opts a package into the
// determinism analyzers.
const DeterministicMarker = "sbcheck:deterministic"

// IgnorePrefix introduces a suppression comment.
const IgnorePrefix = "sbcheck:ignore"

// Package is one loaded, type-checked package plus the sbcheck
// source-marker state the driver needs.
type Package struct {
	// ImportPath is the package's path within the module (the module
	// path itself for the root package).
	ImportPath string
	// Dir is the package directory relative to the module root.
	Dir string
	// Files is the parsed syntax: the package's files plus its
	// in-package _test.go files.
	Files []*ast.File
	// Types is the type-checked package for Files.
	Types *types.Package
	// Info holds object and type resolution for Files.
	Info *types.Info
	// Deterministic reports whether the package carries the
	// sbcheck:deterministic marker.
	Deterministic bool
	// Ignores are the suppression comments found in Files.
	Ignores []Ignore
	// XTest is the external test package (package foo_test) sharing the
	// directory, or nil.
	XTest *Package
}

// Ignore is one parsed "sbcheck:ignore" comment.
type Ignore struct {
	// Pos locates the comment.
	Pos token.Pos
	// File and Line locate the comment for matching against
	// diagnostics.
	File string
	Line int
	// Analyzer names the analyzer being waived.
	Analyzer string
	// Reason is the mandatory justification.
	Reason string
}

// Loader loads and caches the module's packages over one shared
// FileSet.
type Loader struct {
	// Root is the absolute module root (the directory with go.mod).
	Root string
	// ModPath is the module path declared in go.mod.
	ModPath string
	// Fset is shared by every parse and type-check.
	Fset *token.FileSet

	src    types.ImporterFrom
	parsed map[string]*ast.File      // abs filename -> syntax
	deps   map[string]*types.Package // import path -> test-free package
	full   map[string]*Package       // dir (rel) -> analyzed package
}

// NewLoader returns a Loader rooted at the module containing dir. It
// disables cgo in the default build context so GOROOT packages
// type-check from pure-Go source.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	src, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("source importer does not implement ImporterFrom")
	}
	return &Loader{
		Root:    root,
		ModPath: modPath,
		Fset:    fset,
		src:     src,
		parsed:  map[string]*ast.File{},
		deps:    map[string]*types.Package{},
		full:    map[string]*Package{},
	}, nil
}

// findModule walks up from dir to the enclosing go.mod and reads the
// module path from its "module" directive.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module directive", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("no go.mod above %s", abs)
		}
	}
}

// Dirs expands package patterns into module-relative package
// directories. "./..." (or a prefix like "./internal/...") walks the
// tree; other arguments name single directories. testdata, hidden and
// underscore-prefixed directories are skipped, as the go tool does.
func (l *Loader) Dirs(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var dirs []string
	add := func(rel string) {
		rel = filepath.ToSlash(filepath.Clean(rel))
		if !seen[rel] {
			seen[rel] = true
			dirs = append(dirs, rel)
		}
	}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		if suffix, ok := strings.CutSuffix(pat, "..."); ok {
			base := filepath.Join(l.Root, suffix)
			err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if ok, err := hasGoFiles(path); err != nil {
					return err
				} else if ok {
					rel, err := filepath.Rel(l.Root, path)
					if err != nil {
						return err
					}
					add(rel)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		add(pat)
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true, nil
		}
	}
	return false, nil
}

// importPathFor maps a module-relative directory to its import path.
func (l *Loader) importPathFor(rel string) string {
	rel = filepath.ToSlash(rel)
	if rel == "." || rel == "" {
		return l.ModPath
	}
	return l.ModPath + "/" + rel
}

// dirFor maps an import path inside the module to an absolute
// directory, or returns false for paths outside the module.
func (l *Loader) dirFor(path string) (string, bool) {
	if path == l.ModPath {
		return l.Root, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModPath+"/"); ok {
		return filepath.Join(l.Root, filepath.FromSlash(rest)), true
	}
	return "", false
}

// parseFile parses one file once, caching the result across dependency
// and analysis loads.
func (l *Loader) parseFile(abs string) (*ast.File, error) {
	if f, ok := l.parsed[abs]; ok {
		return f, nil
	}
	f, err := parser.ParseFile(l.Fset, abs, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	l.parsed[abs] = f
	return f, nil
}

// listGoFiles returns dir's buildable .go files, split into package
// files, in-package test files, and external (package foo_test) test
// files. Build constraints are evaluated against the default context.
func (l *Loader) listGoFiles(dir string) (pkgFiles, testFiles, xtestFiles []string, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, nil, nil, err
		}
		if !match {
			continue
		}
		abs := filepath.Join(dir, name)
		if !strings.HasSuffix(name, "_test.go") {
			pkgFiles = append(pkgFiles, abs)
			continue
		}
		f, err := l.parseFile(abs)
		if err != nil {
			return nil, nil, nil, err
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			xtestFiles = append(xtestFiles, abs)
		} else {
			testFiles = append(testFiles, abs)
		}
	}
	sort.Strings(pkgFiles)
	sort.Strings(testFiles)
	sort.Strings(xtestFiles)
	return pkgFiles, testFiles, xtestFiles, nil
}

// Import resolves an import for the type checker: module-local paths
// load (test-free) from their directory, everything else delegates to
// the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.Root, 0)
}

// ImportFrom implements types.ImporterFrom over the module + GOROOT.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	pkgDir, local := l.dirFor(path)
	if !local {
		return l.src.ImportFrom(path, dir, mode)
	}
	if p, ok := l.deps[path]; ok {
		return p, nil
	}
	pkgFiles, _, _, err := l.listGoFiles(pkgDir)
	if err != nil {
		return nil, err
	}
	files, err := l.parseAll(pkgFiles)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	l.deps[path] = pkg
	return pkg, nil
}

func (l *Loader) parseAll(paths []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(paths))
	for _, p := range paths {
		f, err := l.parseFile(p)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// newInfo returns a types.Info with every map analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// LoadDir fully loads the package in the module-relative directory rel
// for analysis: the package is type-checked together with its
// in-package test files, and an external _test package (if present) is
// attached as Package.XTest.
func (l *Loader) LoadDir(rel string) (*Package, error) {
	rel = filepath.ToSlash(filepath.Clean(rel))
	if p, ok := l.full[rel]; ok {
		return p, nil
	}
	dir := filepath.Join(l.Root, filepath.FromSlash(rel))
	importPath := l.importPathFor(rel)
	pkgFiles, testFiles, xtestFiles, err := l.listGoFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(pkgFiles)+len(testFiles) == 0 && len(xtestFiles) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", dir)
	}

	files, err := l.parseAll(append(append([]string{}, pkgFiles...), testFiles...))
	if err != nil {
		return nil, err
	}
	info := newInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	p := &Package{
		ImportPath:    importPath,
		Dir:           rel,
		Files:         files,
		Types:         tpkg,
		Info:          info,
		Deterministic: l.hasMarker(files),
		Ignores:       l.collectIgnores(files),
	}

	if len(xtestFiles) > 0 {
		xfiles, err := l.parseAll(xtestFiles)
		if err != nil {
			return nil, err
		}
		xinfo := newInfo()
		xconf := types.Config{Importer: &xtestImporter{l: l, pkgs: map[string]*types.Package{importPath: tpkg}}}
		xtpkg, err := xconf.Check(importPath+"_test", l.Fset, xfiles, xinfo)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s_test: %w", importPath, err)
		}
		p.XTest = &Package{
			ImportPath:    importPath + "_test",
			Dir:           rel,
			Files:         xfiles,
			Types:         xtpkg,
			Info:          xinfo,
			Deterministic: p.Deterministic,
			Ignores:       l.collectIgnores(xfiles),
		}
	}
	l.full[rel] = p
	return p, nil
}

// xtestImporter resolves the imports of an external test package the
// way the go tool builds its test binary: the package under test is
// the one type-checked with its in-package _test.go files (so a helper
// an export_test.go file exports is visible), and every module package
// that imports it, directly or not, is checked again against that
// variant, so the test and its dependencies share one set of types.
type xtestImporter struct {
	l    *Loader
	pkgs map[string]*types.Package // import path -> package as the test sees it
}

// Import implements types.Importer.
func (x *xtestImporter) Import(path string) (*types.Package, error) {
	return x.ImportFrom(path, x.l.Root, 0)
}

// ImportFrom implements types.ImporterFrom: a module package none of
// whose module imports resolve to a variant is the shared test-free
// package; any other is checked again against the variants.
func (x *xtestImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := x.pkgs[path]; ok {
		return p, nil
	}
	base, err := x.l.ImportFrom(path, dir, mode)
	pkgDir, local := x.l.dirFor(path)
	if err != nil || !local {
		return base, err
	}
	pkgFiles, _, _, err := x.l.listGoFiles(pkgDir)
	if err != nil {
		return nil, err
	}
	files, err := x.l.parseAll(pkgFiles)
	if err != nil {
		return nil, err
	}
	variant := false
	for _, f := range files {
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return nil, err
			}
			if _, local := x.l.dirFor(imp); !local {
				continue
			}
			p, err := x.ImportFrom(imp, pkgDir, mode)
			if err != nil {
				return nil, err
			}
			variant = variant || p != x.l.deps[imp]
		}
	}
	if variant {
		conf := types.Config{Importer: x}
		if base, err = conf.Check(path, x.l.Fset, files, nil); err != nil {
			return nil, fmt.Errorf("type-checking %s for an external test: %w", path, err)
		}
	}
	x.pkgs[path] = base
	return base, nil
}

// IsTestFile reports whether the file (by position) is a _test.go file.
func (l *Loader) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(l.Fset.Position(f.Package).Filename, "_test.go")
}

// hasMarker reports whether any non-test file carries the
// sbcheck:deterministic marker before its package clause.
func (l *Loader) hasMarker(files []*ast.File) bool {
	for _, f := range files {
		if l.IsTestFile(f) {
			continue
		}
		for _, cg := range f.Comments {
			if cg.End() > f.Package {
				break
			}
			for _, c := range cg.List {
				if c.Text == "//"+DeterministicMarker {
					return true
				}
			}
		}
	}
	return false
}

// collectIgnores parses every sbcheck:ignore comment in files. The
// trailing "// want ..." marker used by analyzer test fixtures is
// stripped before the reason is read, so fixtures can annotate
// expectations on suppression lines.
func (l *Loader) collectIgnores(files []*ast.File) []Ignore {
	var out []Ignore
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//"+IgnorePrefix)
				if !ok {
					continue
				}
				if i := strings.Index(rest, "// want"); i >= 0 {
					rest = rest[:i]
				}
				fields := strings.Fields(rest)
				ig := Ignore{Pos: c.Pos()}
				pos := l.Fset.Position(c.Pos())
				ig.File, ig.Line = pos.Filename, pos.Line
				if len(fields) > 0 {
					ig.Analyzer = fields[0]
				}
				if len(fields) > 1 {
					ig.Reason = strings.Join(fields[1:], " ")
				}
				out = append(out, ig)
			}
		}
	}
	return out
}

// Suppress drops diagnostics waived by a well-formed ignore for the
// named analyzer on the same line or the line above. Ignores without a
// reason never suppress (CheckIgnores flags them instead).
func Suppress(fset *token.FileSet, ignores []Ignore, name string, diags []analysis.Diagnostic) []analysis.Diagnostic {
	if len(ignores) == 0 {
		return diags
	}
	var kept []analysis.Diagnostic
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		waived := false
		for _, ig := range ignores {
			if ig.Analyzer == name && ig.Reason != "" && ig.File == pos.Filename &&
				(ig.Line == pos.Line || ig.Line == pos.Line-1) {
				waived = true
				break
			}
		}
		if !waived {
			kept = append(kept, d)
		}
	}
	return kept
}

// CheckIgnores validates suppression comments themselves: every ignore
// must name a known analyzer and carry a justification. The returned
// diagnostics belong to the driver (analyzer name "sbcheck") and cannot
// be suppressed.
func CheckIgnores(ignores []Ignore, known map[string]bool) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	for _, ig := range ignores {
		switch {
		case ig.Analyzer == "":
			out = append(out, analysis.Diagnostic{Pos: ig.Pos,
				Message: "sbcheck:ignore must name an analyzer and give a justification"})
		case !known[ig.Analyzer]:
			out = append(out, analysis.Diagnostic{Pos: ig.Pos,
				Message: fmt.Sprintf("sbcheck:ignore names unknown analyzer %q", ig.Analyzer)})
		case ig.Reason == "":
			out = append(out, analysis.Diagnostic{Pos: ig.Pos,
				Message: fmt.Sprintf("sbcheck:ignore %s needs a justification (sbcheck:ignore %s <reason>)", ig.Analyzer, ig.Analyzer)})
		}
	}
	return out
}
