package exp

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var quick = Config{Hosts: 300, Scale: 400, Seed: 9}

var update = flag.Bool("update", false, "rewrite testdata/golden/<id>.txt from the experiments' output")

// TestAllExperimentsRun: every registered experiment completes, emits a
// non-trivial table, and prints exactly testdata/golden/<id>.txt at the
// quick config, in the "=== id: title ===" form cmd/experiments prints.
// Run with -update to regenerate the goldens after an intended change.
func TestAllExperimentsRun(t *testing.T) {
	t.Parallel()
	results, err := RunAll(context.Background(), quick)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(results) != len(IDs()) {
		t.Fatalf("results = %d, ids = %d", len(results), len(IDs()))
	}
	for _, r := range results {
		if r.Title == "" || len(r.Text) < 20 {
			t.Errorf("%s: degenerate output %q / %q", r.ID, r.Title, r.Text)
		}
		if strings.Count(r.Text, "\n") < 2 {
			t.Errorf("%s: output has fewer than 2 rows", r.ID)
		}
		got := "=== " + r.ID + ": " + r.Title + " ===\n" + r.Text + "\n"
		golden := filepath.Join("testdata", "golden", r.ID+".txt")
		if *update {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create it)", r.ID, err)
		}
		if got != string(want) {
			t.Errorf("%s: output differs from %s:\n--- got ---\n%s--- want ---\n%s", r.ID, golden, got, want)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	t.Parallel()
	if _, err := Run(context.Background(), "nonsense", quick); err == nil {
		t.Error("unknown id: want error")
	}
}

func TestIDsComplete(t *testing.T) {
	t.Parallel()
	want := []string{
		"aggregation", "algorithm1", "figure3", "figure5", "figure6",
		"lookupapi", "mitigation", "powerlaw", "table1", "table10",
		"table11", "table12", "table2", "table3", "table4", "table5",
		"table6", "table7", "table8", "table9",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("IDs[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestTable4GroundTruth: the regenerated Table 4 carries the paper's
// pinned prefixes.
func TestTable4GroundTruth(t *testing.T) {
	t.Parallel()
	r, err := Run(context.Background(), "table4", quick)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, p := range []string{"0xe70ee6d1", "0x1d13ba6a", "0x33a02ef5"} {
		if !strings.Contains(r.Text, p) {
			t.Errorf("table4 output missing %s:\n%s", p, r.Text)
		}
	}
}

// TestTable5ContainsCalibratedCells: the heavy-load estimate reproduces
// the 7541 and 14757 cells.
func TestTable5ContainsCalibratedCells(t *testing.T) {
	t.Parallel()
	r, err := Run(context.Background(), "table5", quick)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, cell := range []string{"7541", "14757"} {
		if !strings.Contains(r.Text, cell) {
			t.Errorf("table5 output missing %s:\n%s", cell, r.Text)
		}
	}
}

// TestTable12FindsPaperURLs: the scan recovers the Yandex rows.
func TestTable12FindsPaperURLs(t *testing.T) {
	t.Parallel()
	r, err := Run(context.Background(), "table12", quick)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, s := range []string{"fr.xhamster.com", "0xe4fdd86c", "0x3074e021", "wickedpictures"} {
		if !strings.Contains(r.Text, s) {
			t.Errorf("table12 output missing %s:\n%s", s, r.Text)
		}
	}
}

// TestConfigDefaults: zero config gets usable defaults.
func TestConfigDefaults(t *testing.T) {
	t.Parallel()
	c := Config{}.withDefaults()
	if c.Hosts <= 0 || c.Scale <= 0 || c.Seed == 0 {
		t.Errorf("defaults = %+v", c)
	}
}

// TestLookupAPIExperimentQuantifiesExposure: the deprecated API reveals
// all four URLs; v3 reveals one prefix.
func TestLookupAPIExperimentQuantifiesExposure(t *testing.T) {
	t.Parallel()
	r, err := Run(context.Background(), "lookupapi", quick)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, s := range []string{"full URLs revealed", "4", "prefixes revealed", "1"} {
		if !strings.Contains(r.Text, s) {
			t.Errorf("lookupapi output missing %q:\n%s", s, r.Text)
		}
	}
}

// TestAggregationExperimentConclusions: the victim and the careful client
// are re-identified; the quiet single-prefix client is not.
func TestAggregationExperimentConclusions(t *testing.T) {
	t.Parallel()
	r, err := Run(context.Background(), "aggregation", quick)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !strings.Contains(r.Text, "petsymposium.org/2016/cfp.php") {
		t.Errorf("victim not re-identified:\n%s", r.Text)
	}
	if !strings.Contains(r.Text, "petsymposium.org/2016/links.php") {
		t.Errorf("careful client not re-identified:\n%s", r.Text)
	}
	if !strings.Contains(r.Text, "k-anonymous") {
		t.Errorf("quiet client conclusion missing:\n%s", r.Text)
	}
}
