// Command doccheck is the repository's documentation linter, run by
// "make docs-check" and CI. It has three passes:
//
//   - godoc lint: every exported identifier (types, functions, methods,
//     consts, vars) in the listed packages must carry a doc comment, and
//     every package must have a package comment;
//   - package-comment sweep: every package under internal/ must carry a
//     package-level doc comment ("// Package foo ..."), even packages
//     outside the full-lint list;
//   - link check: relative links in the listed markdown files must
//     resolve to files that exist in the repository.
//
// A fourth, opt-in pass (-cmds file.md) extracts every "go run ./cmd/X"
// invocation quoted in a markdown file and verifies the command at
// least parses its flags ("go run ./cmd/X -h" exits 0) — the guard that
// keeps the experiments playbook runnable as the CLIs evolve.
//
// Usage:
//
//	go run ./tools/doccheck [-md file.md]... [-cmds file.md]... [pkgdir]...
//
// With no arguments it checks the packages in defaultPackages and the
// documents in defaultDocs (README.md, docs/*.md), plus the
// internal/-wide package-comment sweep.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
)

// defaultPackages are the packages whose exported API must be fully
// documented (the PR 1 retrofit plus everything added since).
var defaultPackages = []string{
	"internal/sbserver",
	"internal/wire",
	"internal/probestore",
	"internal/core",
	"internal/workload",
	"internal/sbclient",
	"internal/prefixtable",
	"internal/stream",
}

// defaultDocs are the markdown files whose relative links must resolve.
var defaultDocs = []string{
	"README.md",
	"docs/ARCHITECTURE.md",
	"docs/PAPER-MAP.md",
	"docs/EXPERIMENTS.md",
}

func main() {
	var mdFiles stringList
	var cmdFiles stringList
	flag.Var(&mdFiles, "md", "markdown file to link-check (repeatable)")
	flag.Var(&cmdFiles, "cmds", "markdown file whose quoted 'go run ./cmd/X' commands must parse -h (repeatable)")
	flag.Parse()

	pkgs := flag.Args()
	sweep := false
	if len(pkgs) == 0 && len(mdFiles) == 0 && len(cmdFiles) == 0 {
		pkgs = defaultPackages
		mdFiles = defaultDocs
		sweep = true
	}

	problems := 0
	for _, dir := range pkgs {
		problems += lintPackage(dir)
	}
	if sweep {
		problems += sweepPackageComments("internal", pkgs)
	}
	for _, md := range mdFiles {
		problems += lintLinks(md)
	}
	for _, md := range cmdFiles {
		problems += checkQuotedCommands(md)
	}
	if problems > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d problem(s)\n", problems)
		os.Exit(1)
	}
}

// sweepPackageComments lints the package comment (only) of every Go
// package under root, skipping directories already fully linted.
func sweepPackageComments(root string, already []string) int {
	linted := make(map[string]bool, len(already))
	for _, dir := range already {
		linted[filepath.Clean(dir)] = true
	}
	problems := 0
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() || linted[filepath.Clean(path)] {
			return err
		}
		if ok, perr := hasGoFiles(path); perr != nil || !ok {
			return perr
		}
		problems += lintPackageComment(path)
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: sweep %s: %v\n", root, err)
		problems++
	}
	return problems
}

// hasGoFiles reports whether dir directly contains non-test Go files.
func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true, nil
		}
	}
	return false, nil
}

// lintPackageComment reports a package in dir lacking a package-level
// doc comment, returning the number of findings.
func lintPackageComment(dir string) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %s: %v\n", dir, err)
		return 1
	}
	problems := 0
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			fmt.Fprintf(os.Stderr, "%s: package %s is missing a package comment\n", dir, pkg.Name)
			problems++
		}
	}
	return problems
}

// goRunCmd matches "go run ./cmd/<name>" invocations quoted in docs.
var goRunCmd = regexp.MustCompile(`go run (\./cmd/[a-z]+)`)

// checkQuotedCommands extracts every distinct "go run ./cmd/X" from a
// markdown file and verifies "go run ./cmd/X -h" exits 0 — i.e. the
// quoted command still exists and parses flags. Returns the number of
// failures.
func checkQuotedCommands(md string) int {
	data, err := os.ReadFile(md)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		return 1
	}
	seen := make(map[string]bool)
	var cmds []string
	for _, m := range goRunCmd.FindAllStringSubmatch(string(data), -1) {
		if !seen[m[1]] {
			seen[m[1]] = true
			cmds = append(cmds, m[1])
		}
	}
	if len(cmds) == 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %s quotes no 'go run ./cmd/...' commands\n", md)
		return 1
	}
	problems := 0
	for _, pkg := range cmds {
		cmd := exec.Command("go", "run", pkg, "-h")
		if out, err := cmd.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %s: 'go run %s -h' failed: %v\n%s", md, pkg, err, out)
			problems++
		} else {
			fmt.Printf("doccheck: %s -h ok (quoted in %s)\n", pkg, md)
		}
	}
	return problems
}

// stringList implements flag.Value for a repeatable string flag.
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// lintPackage reports every exported identifier in dir that lacks a doc
// comment, returning the number of findings.
func lintPackage(dir string) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %s: %v\n", dir, err)
		return 1
	}
	problems := 0
	complain := func(pos token.Pos, what string) {
		fmt.Fprintf(os.Stderr, "%s: %s is missing a doc comment\n", fset.Position(pos), what)
		problems++
	}
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && exportedRecv(d) && d.Doc == nil {
						complain(d.Pos(), "func "+funcName(d))
					}
				case *ast.GenDecl:
					lintGenDecl(d, complain) // complain counts the findings
				}
			}
		}
		if !hasPkgDoc {
			fmt.Fprintf(os.Stderr, "%s: package %s is missing a package comment\n", dir, pkg.Name)
			problems++
		}
	}
	return problems
}

// lintGenDecl checks a const/var/type declaration group: a group doc
// comment covers all its specs; otherwise each exported spec needs its
// own doc (or, for values, at least a trailing line comment).
func lintGenDecl(d *ast.GenDecl, complain func(token.Pos, string)) {
	if d.Tok != token.CONST && d.Tok != token.VAR && d.Tok != token.TYPE {
		return
	}
	if d.Doc != nil {
		return
	}
	for _, spec := range d.Specs {
		switch sp := spec.(type) {
		case *ast.TypeSpec:
			if sp.Name.IsExported() && sp.Doc == nil {
				complain(sp.Pos(), "type "+sp.Name.Name)
			}
		case *ast.ValueSpec:
			for _, name := range sp.Names {
				if name.IsExported() && sp.Doc == nil && sp.Comment == nil {
					complain(name.Pos(), d.Tok.String()+" "+name.Name)
				}
			}
		}
	}
}

// exportedRecv reports whether a method's receiver type is exported
// (methods on unexported types are internal API).
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if ident, ok := t.(*ast.Ident); ok {
		return ident.IsExported()
	}
	return true
}

// funcName renders "Recv.Name" for methods and "Name" for functions.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	var b strings.Builder
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if ident, ok := t.(*ast.Ident); ok {
		b.WriteString(ident.Name)
		b.WriteString(".")
	}
	b.WriteString(d.Name.Name)
	return b.String()
}

// mdLink matches inline markdown links; the first group is the target.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// lintLinks reports relative links in a markdown file that do not
// resolve to an existing file, returning the number of findings.
func lintLinks(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		return 1
	}
	problems := 0
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") ||
				strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			target = strings.SplitN(target, "#", 2)[0]
			resolved := filepath.Join(filepath.Dir(path), target)
			if _, err := os.Stat(resolved); err != nil {
				fmt.Fprintf(os.Stderr, "%s:%d: broken link %q (%s does not exist)\n",
					path, i+1, m[1], resolved)
				problems++
			}
		}
	}
	return problems
}
