package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sbprivacy/internal/core"
	"sbprivacy/internal/hashx"
	"sbprivacy/internal/probestore"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/workload"
)

func TestParseWindow(t *testing.T) {
	t.Parallel()
	at := func(s string) time.Time {
		tm, err := time.Parse(time.RFC3339, s)
		if err != nil {
			t.Fatalf("bad test time %q: %v", s, err)
		}
		return tm
	}
	cases := []struct {
		since, until string
		in           time.Time
		want         bool
	}{
		{"", "", at("2016-03-08T12:00:00Z"), true},
		{"2016-03-08", "", at("2016-03-08T00:00:00Z"), true},
		{"2016-03-08", "", at("2016-03-07T23:59:59Z"), false},
		{"", "2016-03-09", at("2016-03-08T23:59:59Z"), true},
		{"", "2016-03-09", at("2016-03-09T00:00:00Z"), false}, // until is exclusive
		{"2016-03-08", "2016-03-09", at("2016-03-08T12:00:00Z"), true},
		{"2016-03-08T06:00:00Z", "2016-03-08T07:00:00Z", at("2016-03-08T06:30:00Z"), true},
		{"2016-03-08T06:00:00Z", "2016-03-08T07:00:00Z", at("2016-03-08T07:00:00Z"), false},
	}
	for _, c := range cases {
		window, err := parseWindow(c.since, c.until)
		if err != nil {
			t.Errorf("parseWindow(%q, %q): %v", c.since, c.until, err)
			continue
		}
		if got := window(c.in); got != c.want {
			t.Errorf("window[%q, %q)(%v) = %v, want %v", c.since, c.until, c.in, got, c.want)
		}
	}
}

func TestParseWindowErrors(t *testing.T) {
	t.Parallel()
	for _, c := range [][2]string{
		{"not-a-time", ""},
		{"", "2016-13-45"},
		{"2016-03-09", "2016-03-08"}, // inverted
		{"2016-03-08", "2016-03-08"}, // empty window
	} {
		if _, err := parseWindow(c[0], c[1]); err == nil {
			t.Errorf("parseWindow(%q, %q): want error", c[0], c[1])
		}
	}
}

// writeRules writes a correlator rules file and returns its path.
func writeRules(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rules.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

func TestLoadRules(t *testing.T) {
	t.Parallel()
	path := writeRules(t, `
# the paper's example inference
paper-submit 1h http://cfp.example/ submit.example/deadline
`)
	rules, err := loadRules(path)
	if err != nil {
		t.Fatalf("loadRules: %v", err)
	}
	if len(rules) != 1 {
		t.Fatalf("got %d rules, want 1", len(rules))
	}
	r := rules[0]
	if r.Name != "paper-submit" || r.Window != time.Hour || len(r.Prefixes) != 2 {
		t.Errorf("rule = %+v", r)
	}
}

func TestLoadRulesErrors(t *testing.T) {
	t.Parallel()
	for name, content := range map[string]string{
		"empty":           "\n# only a comment\n",
		"short-line":      "just-a-name 1h\n",
		"bad-window":      "r fortnight a.example/\n",
		"negative-window": "r -1h a.example/ b.example/\n",
		"bad-url":         "r 1h http:///no-host\n",
	} {
		path := writeRules(t, content)
		if _, err := loadRules(path); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	if _, err := loadRules(filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Error("missing file: want error")
	}
}

// TestCorrelatorReplay is the -correlator satellite end to end: a probe
// store holding one client that queried both rule URLs within the
// window (and another that did not) replays into exactly one fired
// correlation event, honoring the -since/-until window.
func TestCorrelatorReplay(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	store, err := probestore.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	cfp := hashx.SumPrefix("cfp.example/")
	submit := hashx.SumPrefix("submit.example/")
	base := time.Date(2016, 3, 8, 10, 0, 0, 0, time.UTC)
	for _, p := range []sbserver.Probe{
		{Time: base, ClientID: "alice", Prefixes: []hashx.Prefix{cfp}},
		{Time: base.Add(20 * time.Minute), ClientID: "alice", Prefixes: []hashx.Prefix{submit}},
		{Time: base, ClientID: "bob", Prefixes: []hashx.Prefix{cfp}},
		{Time: base.Add(3 * time.Hour), ClientID: "bob", Prefixes: []hashx.Prefix{submit}},
	} {
		store.Observe(p)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rules := writeRules(t, "paper-submit 1h http://cfp.example/ http://submit.example/\n")

	capture := func(window func(time.Time) bool) string {
		t.Helper()
		old := os.Stdout
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatalf("Pipe: %v", err)
		}
		os.Stdout = w
		rc := runReplay(dir, "", "", window, false, core.LongitudinalConfig{}, rules, "")
		w.Close() //nolint:errcheck // test pipe
		os.Stdout = old
		out, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("ReadAll: %v", err)
		}
		if rc != 0 {
			t.Fatalf("runReplay = %d, output:\n%s", rc, out)
		}
		return string(out)
	}

	all, err := parseWindow("", "")
	if err != nil {
		t.Fatalf("parseWindow: %v", err)
	}
	out := capture(all)
	if !strings.Contains(out, "1 events") || !strings.Contains(out, "paper-submit") || !strings.Contains(out, "alice") {
		t.Errorf("full-window correlation output wrong:\n%s", out)
	}
	if strings.Contains(out, "bob") {
		t.Errorf("bob fired despite 3h gap:\n%s", out)
	}

	// Windowing: exclude alice's second probe and nothing can fire.
	early, err := parseWindow("", "2016-03-08T10:10:00Z")
	if err != nil {
		t.Fatalf("parseWindow: %v", err)
	}
	out = capture(early)
	if !strings.Contains(out, "0 events") {
		t.Errorf("windowed correlation should fire nothing:\n%s", out)
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed. Swapping os.Stdout is process-wide, so callers must not run
// in parallel with other tests that print.
func captureStdout(t *testing.T, fn func() int) (string, int) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("Pipe: %v", err)
	}
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	rc := fn()
	w.Close() //nolint:errcheck // test pipe
	os.Stdout = old
	return string(<-out), rc
}

// TestRunNeedsAMode: without -probe-store, -follow or -live there is
// nothing to analyze, and the blacklist-audit flags are gone (the
// audits are experiments table9-table12), so each exits 2.
func TestRunNeedsAMode(t *testing.T) {
	t.Parallel()
	for _, args := range [][]string{nil, {"-index", "urls.txt"}, {"-provider", "yandex", "-scale", "100"}} {
		if rc := run(args); rc != 2 {
			t.Errorf("run %q = %d, want 2", args, rc)
		}
	}
}

// TestLiveRejectsReplayOnlyFlags: -since, -until and -client select
// probes in replay and follow mode; -live has no such filter, so it
// refuses them instead of dropping them silently.
func TestLiveRejectsReplayOnlyFlags(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	for _, extra := range [][]string{
		{"-since", "2016-03-08"},
		{"-until", "2016-03-09"},
		{"-client", "victim"},
	} {
		args := append([]string{"-live", dir}, extra...)
		if rc := run(args); rc != 2 {
			t.Errorf("run %q = %d, want 2", args, rc)
		}
	}
}

// TestLiveHonoursLinkageFlags: with non-default linkage thresholds, the
// -live final snapshot of a sealed campaign store is byte-identical to
// the -probe-store -longitudinal snapshot taken with the same
// thresholds, and those thresholds change the linkage.
func TestLiveHonoursLinkageFlags(t *testing.T) {
	camp, err := workload.Generate(workload.Config{Days: 4, Clients: 60, Seed: 42})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	dir := t.TempDir()
	store, err := probestore.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := camp.Run(context.Background(), store); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	index := filepath.Join(dir, "index.urls")
	if err := os.WriteFile(index, []byte(strings.Join(camp.IndexExpressions(), "\n")+"\n"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	all, err := parseWindow("", "")
	if err != nil {
		t.Fatalf("parseWindow: %v", err)
	}
	loose := core.LongitudinalConfig{MinShared: 2, MinSharedURLs: -1, MinLinkScore: 0.3}

	snapshot := func(name string, fn func(out string) int) string {
		t.Helper()
		out := filepath.Join(t.TempDir(), name)
		if printed, rc := captureStdout(t, func() int { return fn(out) }); rc != 0 {
			t.Fatalf("%s: exit %d, output:\n%s", name, rc, printed)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return string(b)
	}
	batch := snapshot("batch", func(out string) int {
		return runReplay(dir, index, "", all, true, loose, "", out)
	})
	batchDefault := snapshot("batch-default", func(out string) int {
		return runReplay(dir, index, "", all, true, core.LongitudinalConfig{}, "", out)
	})
	live := snapshot("live", func(out string) int {
		return runLive(dir, "", 0, loose, 10*time.Millisecond, time.Millisecond, out, 300*time.Millisecond)
	})
	if batch == batchDefault {
		t.Fatal("bad scenario: the loose thresholds link exactly what the defaults do")
	}
	if live != batch {
		t.Errorf("live snapshot with loose thresholds differs from the batch one:\n--- live ---\n%s--- batch ---\n%s", live, batch)
	}
}

// TestReplayOutputPinned pins runReplay's stdout over one small store
// and rules file in each replay shape: store only, -index, -index
// -longitudinal and -client, each against testdata/replay-<shape>.txt
// (the store directory printed as STORE). Every shape also runs the
// correlation rules, and the correlation section must read the same in
// all four, whichever other analyses share the replay.
func TestReplayOutputPinned(t *testing.T) {
	dir := t.TempDir()
	store, err := probestore.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	cfp := hashx.SumPrefix("cfp.example/")
	submit := hashx.SumPrefix("submit.example/")
	news := hashx.SumPrefix("news.example/")
	today := hashx.SumPrefix("news.example/today")
	day1 := time.Date(2016, 3, 8, 0, 0, 0, 0, time.UTC)
	day2 := day1.AddDate(0, 0, 1)
	for _, p := range []sbserver.Probe{
		{Time: day1.Add(10 * time.Hour), ClientID: "alice", Prefixes: []hashx.Prefix{cfp}},
		{Time: day1.Add(10 * time.Hour), ClientID: "bob", Prefixes: []hashx.Prefix{cfp}},
		{Time: day1.Add(10*time.Hour + 20*time.Minute), ClientID: "alice", Prefixes: []hashx.Prefix{submit}},
		{Time: day1.Add(11 * time.Hour), ClientID: "carol", Prefixes: []hashx.Prefix{news, today}},
		{Time: day1.Add(13 * time.Hour), ClientID: "bob", Prefixes: []hashx.Prefix{submit}},
		{Time: day2.Add(9 * time.Hour), ClientID: "alice", Prefixes: []hashx.Prefix{news}},
		{Time: day2.Add(9*time.Hour + 30*time.Minute), ClientID: "carol", Prefixes: []hashx.Prefix{news, today}},
		{Time: day2.Add(12 * time.Hour), ClientID: "bob", Prefixes: []hashx.Prefix{cfp}},
		{Time: day2.Add(12*time.Hour + 30*time.Minute), ClientID: "bob", Prefixes: []hashx.Prefix{submit}},
	} {
		store.Observe(p)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	index := filepath.Join(t.TempDir(), "index.urls")
	if err := os.WriteFile(index, []byte("cfp.example/\nsubmit.example/\nnews.example/\nnews.example/today\n"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	rules := writeRules(t, "paper-submit 1h http://cfp.example/ http://submit.example/\nnews-twice 30m news.example/ news.example/today\n")
	all, err := parseWindow("", "")
	if err != nil {
		t.Fatalf("parseWindow: %v", err)
	}

	const correlation = `
== temporal correlation (2 rules, 4 events) ==
rule          client  first                 last
paper-submit  alice   2016-03-08T10:00:00Z  2016-03-08T10:20:00Z
news-twice    carol   2016-03-08T11:00:00Z  2016-03-08T11:00:00Z
news-twice    carol   2016-03-09T09:30:00Z  2016-03-09T09:30:00Z
paper-submit  bob     2016-03-09T12:00:00Z  2016-03-09T12:30:00Z
`
	for _, c := range []struct {
		name, index, client string
		longitudinal        bool
	}{
		{name: "store-only"},
		{name: "index", index: index},
		{name: "index-longitudinal", index: index, longitudinal: true},
		{name: "client", client: "alice"},
	} {
		out, rc := captureStdout(t, func() int {
			return runReplay(dir, c.index, c.client, all, c.longitudinal, core.LongitudinalConfig{}, rules, "")
		})
		if rc != 0 {
			t.Fatalf("%s: runReplay = %d, output:\n%s", c.name, rc, out)
		}
		out = strings.ReplaceAll(out, dir, "STORE")
		want, err := os.ReadFile(filepath.Join("testdata", "replay-"+c.name+".txt"))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if out != string(want) {
			t.Errorf("%s: stdout changed:\n--- got ---\n%s--- want ---\n%s", c.name, out, want)
		}
		at := strings.Index(out, "\n== temporal correlation")
		if at < 0 || out[at:] != correlation {
			t.Errorf("%s: correlation section differs from the pinned one:\n%s", c.name, out)
		}
	}
}
