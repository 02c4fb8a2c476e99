// Command sbcheck is the repository's invariant analyzer suite, run by
// "make lint" and CI's lint job. It loads and type-checks every package
// in the module (no network, no external tooling) and applies eight
// repo-specific analyzers:
//
//   - detclock — no wall-clock reads (time.Now and friends) in
//     deterministic packages; time routes through workload.Clock;
//   - detrand — no process-global math/rand, hard-coded seeds, or
//     crypto/rand in deterministic packages; randomness threads from
//     the campaign's seeded *rand.Rand;
//   - maporder — no order-dependent slices or output-sink writes built
//     while ranging over a map in deterministic packages;
//   - flusherr — Flush/Close errors on probestore/sbserver/sbclient
//     types are never discarded, anywhere (including tests);
//   - lockscope — no blocking operations (channel ops, I/O, barriers,
//     sink/callback invocation) while a sync mutex is held in the
//     concurrent core packages (sbserver, probestore, sbclient, core);
//   - goexit — every go statement in long-lived packages has a visible
//     stop path (ctx, channel receive/select/send, WaitGroup);
//   - ctxflow — context.Background/TODO only at process edges (package
//     main and tests), never mid-stack in library code;
//   - hotalloc — no allocation-causing constructs inside functions
//     marked with a "//sbcheck:hotpath" doc-comment directive.
//
// A package opts into the three determinism analyzers by carrying a
// "//sbcheck:deterministic" comment before the package clause of any
// non-test file. A function opts into hotalloc with "//sbcheck:hotpath"
// in its doc comment. A single finding is waived with an inline
// "//sbcheck:ignore <analyzer> <reason>" comment on the offending line
// or the line above; the reason is mandatory and an ignore without one
// (or naming an unknown analyzer) is itself reported.
//
// Usage:
//
//	go run ./tools/sbcheck [-list] [-waiver-budget file] [packages]
//
// Packages default to ./... (the whole module). Diagnostics print as
// file:line:col: [analyzer] message; the exit status is 1 if any
// diagnostic survives suppression.
//
// -list prints the analyzer suite, the deterministic packages, the
// hotpath-marked functions, and the total waiver count, running no
// analysis.
//
// -waiver-budget compares the per-analyzer count of sbcheck:ignore
// comments against the committed budget file (lint-waivers.txt) and
// fails the run unless they are equal. A count above its line means a
// waiver was added without a reviewed edit to the file; a count below
// it means the file is stale and would let that many waivers back in
// unreviewed, so the PR that removes a waiver lowers the line.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"sbprivacy/tools/sbcheck/analysis"
	"sbprivacy/tools/sbcheck/analyzers"
	"sbprivacy/tools/sbcheck/load"
)

func main() {
	listOnly := flag.Bool("list", false, "list analyzers, deterministic packages, hotpath functions and waiver count; run nothing")
	budgetPath := flag.String("waiver-budget", "", "budget file of per-analyzer sbcheck:ignore counts; fail unless every count equals its line")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: sbcheck [-list] [-waiver-budget file] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Packages default to ./... relative to the module root.\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	os.Exit(run(flag.Args(), *listOnly, *budgetPath))
}

// finding pairs a diagnostic with the analyzer that produced it, ready
// to print.
type finding struct {
	file     string
	line     int
	col      int
	analyzer string
	message  string
}

func run(patterns []string, listOnly bool, budgetPath string) int {
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := load.NewLoader(wd)
	if err != nil {
		fatal(err)
	}
	if listOnly {
		for _, a := range analyzers.All() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
	}
	dirs, err := loader.Dirs(patterns)
	if err != nil {
		fatal(err)
	}

	var findings []finding
	waivers := map[string]int{}
	totalWaivers := 0
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			fatal(err)
		}
		for _, p := range []*load.Package{pkg, pkg.XTest} {
			if p == nil {
				continue
			}
			for _, ig := range p.Ignores {
				waivers[ig.Analyzer]++
				totalWaivers++
			}
		}
		if listOnly {
			if pkg.Deterministic {
				fmt.Printf("deterministic: %s\n", pkg.ImportPath)
			}
			for _, fd := range analyzers.HotpathFuncs(pkg.Files) {
				fmt.Printf("hotpath: %s: %s\n", pkg.ImportPath, analyzers.HotpathName(fd))
			}
			continue
		}
		for _, p := range []*load.Package{pkg, pkg.XTest} {
			if p == nil {
				continue
			}
			findings = append(findings, analyzePackage(loader, p)...)
		}
	}
	if listOnly {
		fmt.Printf("waivers: %d\n", totalWaivers)
		return 0
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		if a.col != b.col {
			return a.col < b.col
		}
		return a.analyzer < b.analyzer
	})
	for _, f := range findings {
		fmt.Printf("%s:%d:%d: [%s] %s\n", f.file, f.line, f.col, f.analyzer, f.message)
	}
	problems := len(findings)
	if budgetPath != "" {
		for _, msg := range checkWaiverBudget(budgetPath, waivers) {
			fmt.Println(msg)
			problems++
		}
	}
	if problems > 0 {
		fmt.Printf("sbcheck: %d problem(s)\n", problems)
		return 1
	}
	return 0
}

// checkWaiverBudget compares the observed per-analyzer waiver counts
// against the committed budget file and returns one problem line per
// analyzer whose count differs from its line, in either direction (an
// analyzer missing from the file has a budget of 0). The file format is
// one "analyzer count" pair per line; blank lines and #-comments are
// skipped.
func checkWaiverBudget(path string, waivers map[string]int) (problems []string) {
	f, err := os.Open(path)
	if err != nil {
		fatal(fmt.Errorf("waiver budget: %w", err))
	}
	defer f.Close() //nolint:errcheck // read-only
	budget := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			fatal(fmt.Errorf("waiver budget %s: malformed line %q", path, line))
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			fatal(fmt.Errorf("waiver budget %s: bad count in %q", path, line))
		}
		budget[fields[0]] = n
	}
	if err := sc.Err(); err != nil {
		fatal(fmt.Errorf("waiver budget: %w", err))
	}
	names := make([]string, 0, len(budget)+len(waivers))
	for name := range budget {
		names = append(names, name)
	}
	for name := range waivers {
		if _, ok := budget[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		switch found, want := waivers[name], budget[name]; {
		case found > want:
			problems = append(problems, fmt.Sprintf("%s: [waiver-budget] %d sbcheck:ignore %s waiver(s), budget allows %d; justify the growth by updating the budget file",
				path, found, name, want))
		case found < want:
			problems = append(problems, fmt.Sprintf("%s: [waiver-budget] found %d sbcheck:ignore %s waiver(s), budget says %d: lower the file",
				path, found, name, want))
		}
	}
	return problems
}

// analyzePackage runs every applicable analyzer over one package and
// returns the surviving findings, including driver diagnostics for
// malformed sbcheck:ignore comments.
func analyzePackage(loader *load.Loader, p *load.Package) []finding {
	var out []finding
	emit := func(name string, diags []analysis.Diagnostic) {
		for _, d := range diags {
			pos := loader.Fset.Position(d.Pos)
			rel := pos.Filename
			if r, err := filepath.Rel(loader.Root, pos.Filename); err == nil {
				rel = r
			}
			out = append(out, finding{file: rel, line: pos.Line, col: pos.Column, analyzer: name, message: d.Message})
		}
	}
	for _, a := range analyzers.All() {
		if a.DeterministicOnly && !p.Deterministic {
			continue
		}
		files := p.Files
		if a.SkipTestFiles {
			files = nil
			for _, f := range p.Files {
				if !loader.IsTestFile(f) {
					files = append(files, f)
				}
			}
		}
		if len(files) == 0 {
			continue
		}
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      loader.Fset,
			Files:     files,
			Pkg:       p.Types,
			TypesInfo: p.Info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			fatal(fmt.Errorf("%s on %s: %w", a.Name, p.ImportPath, err))
		}
		emit(a.Name, load.Suppress(loader.Fset, p.Ignores, a.Name, diags))
	}
	emit("sbcheck", load.CheckIgnores(p.Ignores, analyzers.Known()))
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sbcheck: %v\n", err)
	os.Exit(2)
}
