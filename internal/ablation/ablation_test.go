package ablation

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sbprivacy/internal/probestore"
	"sbprivacy/internal/workload"
)

// testConfig is a small grid that still produces linkable churn.
func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Campaign:  workload.Config{Days: 4, Clients: 60, Sites: 12, Seed: 42},
		StoreRoot: t.TempDir(),
		Verify:    true,
	}
}

// TestGridEndToEnd runs the default grid on a small campaign and
// checks the structural guarantees every acceptance claim rests on:
// per-cell stores exist, overhead counters are consistent, dummy cells
// pad, the one-prefix cell withholds and prompts, and at least one
// mitigation cell measurably drops linkage recall.
func TestGridEndToEnd(t *testing.T) {
	t.Parallel()
	cfg := testConfig(t)
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Cells) != len(DefaultGrid()) {
		t.Fatalf("got %d cells, want %d", len(rep.Cells), len(DefaultGrid()))
	}
	if rep.Transitions == 0 {
		t.Fatal("campaign produced no linkable rotations; grid is unscoreable")
	}

	byName := make(map[string]CellReport, len(rep.Cells))
	for _, c := range rep.Cells {
		byName[c.Cell.Name] = c

		if !c.Verified {
			t.Errorf("cell %s: determinism rerun did not happen", c.Cell.Name)
		}
		if c.Overhead.RealPrefixes+c.Overhead.DummyPrefixes != c.Overhead.PrefixesSent {
			t.Errorf("cell %s: real %d + dummy %d != sent %d", c.Cell.Name,
				c.Overhead.RealPrefixes, c.Overhead.DummyPrefixes, c.Overhead.PrefixesSent)
		}
		if c.Probes == 0 {
			t.Errorf("cell %s: no probes reached the provider", c.Cell.Name)
		}
		// Every cell persisted its own store.
		store, err := probestore.Open(c.StoreDir, probestore.ReadOnly())
		if err != nil {
			t.Errorf("cell %s: store unreadable: %v", c.Cell.Name, err)
			continue
		}
		if st := store.Stats(); st.Persisted != c.Probes {
			t.Errorf("cell %s: store persisted %d of %d probes", c.Cell.Name, st.Persisted, c.Probes)
		}
		if err := store.Close(); err != nil {
			t.Errorf("cell %s: store close: %v", c.Cell.Name, err)
		}
		if want := filepath.Join(cfg.StoreRoot, c.Cell.Name); c.StoreDir != want {
			t.Errorf("cell %s: store at %s, want %s", c.Cell.Name, c.StoreDir, want)
		}
	}

	base := byName["baseline"]
	if base.Overhead.DummyPrefixes != 0 || base.Overhead.Withheld != 0 || base.Overhead.ConsentPrompts != 0 {
		t.Errorf("baseline overhead not clean: %+v", base.Overhead)
	}
	if base.Naive.Linkage.Recall == 0 {
		t.Error("baseline found no true links; deltas are meaningless")
	}

	for _, name := range []string{"dummy-k1", "dummy-k4"} {
		c := byName[name]
		if c.Overhead.DummyPrefixes == 0 {
			t.Errorf("%s sent no dummies", name)
		}
		if c.Overhead.PrefixesSent <= base.Overhead.PrefixesSent {
			t.Errorf("%s sent %d prefixes, baseline %d — padding missing",
				name, c.Overhead.PrefixesSent, base.Overhead.PrefixesSent)
		}
		if c.Informed == nil {
			t.Errorf("%s missing the informed-provider scoring", name)
		}
	}
	k1, k4 := byName["dummy-k1"], byName["dummy-k4"]
	if k4.Overhead.DummyPrefixes <= k1.Overhead.DummyPrefixes {
		t.Errorf("k4 dummies (%d) not above k1 (%d)",
			k4.Overhead.DummyPrefixes, k1.Overhead.DummyPrefixes)
	}
	// Unindexed dummy prefixes defeat the naive whole-set re-identifier.
	if k4.Naive.Linkage.Recall >= base.Naive.Linkage.Recall {
		t.Errorf("dummy-k4 naive recall %.2f not below baseline %.2f",
			k4.Naive.Linkage.Recall, base.Naive.Linkage.Recall)
	}
	// But the informed provider strips them and recovers the baseline
	// conclusions — the paper's negative result about dummies.
	if k4.Informed.Linkage.Recall != base.Naive.Linkage.Recall {
		t.Errorf("informed provider recall %.2f, want baseline %.2f (dummies stripped)",
			k4.Informed.Linkage.Recall, base.Naive.Linkage.Recall)
	}

	op := byName["one-prefix"]
	if op.Overhead.Withheld == 0 {
		t.Error("one-prefix (declined) withheld nothing")
	}
	if op.Overhead.ConsentPrompts == 0 {
		t.Error("one-prefix (declined) never prompted")
	}
	if op.Naive.Linkage.Recall >= base.Naive.Linkage.Recall {
		t.Errorf("one-prefix recall %.2f not below baseline %.2f — no measurable drop",
			op.Naive.Linkage.Recall, base.Naive.Linkage.Recall)
	}
	if op.Naive.ReidentifiedCookies >= base.Naive.ReidentifiedCookies {
		t.Errorf("one-prefix re-identified %d cookies, baseline %d — no drop",
			op.Naive.ReidentifiedCookies, base.Naive.ReidentifiedCookies)
	}

	opc := byName["one-prefix-consent"]
	if opc.Overhead.Withheld != 0 {
		t.Errorf("consenting one-prefix withheld %d prefixes, want 0", opc.Overhead.Withheld)
	}
	if opc.Overhead.Requests <= base.Overhead.Requests {
		t.Errorf("consenting one-prefix made %d requests, baseline %d — staging costs requests",
			opc.Overhead.Requests, base.Overhead.Requests)
	}

	s := rep.String()
	for _, want := range []string{"baseline", "dummy-k4", "one-prefix", "Δrecall", "informed provider", "determinism: 5/5"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

// TestRunRejectsDirtyStoreRoot: rerunning a grid into a root whose
// cell stores already hold segments must fail fast instead of
// appending a second campaign's probes into the scores.
func TestRunRejectsDirtyStoreRoot(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Campaign:  workload.Config{Days: 1, Clients: 10, Sites: 4, Seed: 3},
		Cells:     []Cell{{Name: "baseline", Kind: PolicyBaseline}},
		StoreRoot: t.TempDir(),
	}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	_, err := Run(context.Background(), cfg)
	if err == nil || !strings.Contains(err.Error(), "already holds") {
		t.Errorf("second Run into the same root: got %v, want already-holds error", err)
	}
}

// TestWriteIndexFile: the index lands whole under its name with no temp
// file left beside it, and a write whose rename fails leaves the old
// path untouched and no temp file either.
func TestWriteIndexFile(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "index.urls")
	if err := WriteIndexFile(path, []string{"a.example/", "b.example/x"}); err != nil {
		t.Fatalf("WriteIndexFile: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(got) != "a.example/\nb.example/x\n" {
		t.Errorf("index file = %q", got)
	}

	// A non-empty directory in the way makes the rename fail.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "keep"), 0o755); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	if err := WriteIndexFile(blocked, []string{"c.example/"}); err == nil {
		t.Error("WriteIndexFile over a non-empty directory: want error")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if strings.Join(names, " ") != "blocked index.urls" {
		t.Errorf("directory holds %q, want only blocked and index.urls", names)
	}
}

// TestRunRejectsBadGrids: unnamed and duplicate cells fail fast.
func TestRunRejectsBadGrids(t *testing.T) {
	t.Parallel()
	if _, err := Run(context.Background(), Config{
		Campaign: workload.Config{Days: 1, Clients: 2, Seed: 1},
		Cells:    []Cell{{Kind: PolicyBaseline}},
	}); err == nil {
		t.Error("unnamed cell: want error")
	}
	if _, err := Run(context.Background(), Config{
		Campaign: workload.Config{Days: 1, Clients: 2, Seed: 1},
		Cells: []Cell{
			{Name: "x", Kind: PolicyBaseline},
			{Name: "x", Kind: PolicyDummy, DummyK: 1},
		},
	}); err == nil {
		t.Error("duplicate cell name: want error")
	}
}

// TestPolicyKindStrings covers the namer.
func TestPolicyKindStrings(t *testing.T) {
	t.Parallel()
	for k, want := range map[PolicyKind]string{
		PolicyBaseline:  "baseline",
		PolicyDummy:     "dummy",
		PolicyOnePrefix: "one-prefix",
		PolicyKind(9):   "PolicyKind(9)",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}
