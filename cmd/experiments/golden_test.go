package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sbprivacy/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata/<name>.golden from the current output")

// checkGolden compares got with testdata/<name>.golden, or rewrites the
// file when -update is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (run with -update after an intended change):\n--- got\n%s\n--- want\n%s",
			path, got, want)
	}
}

// storeDigests lists the SHA-256 of every segment, sidecar and index
// file in dir, one "name sha256" line each, in name order.
func storeDigests(t *testing.T, dir string) string {
	t.Helper()
	var names []string
	for _, pattern := range []string{"seg-*.plog", "seg-*.pidx", "index.urls"} {
		m, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, m...)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %x\n", filepath.Base(name), sha256.Sum256(data))
	}
	return b.String()
}

// TestCampaignGolden pins a small campaign end to end: the printed
// report, with the store path masked, and the bytes of every file the
// campaign leaves in its store. Every client Update and CheckURL of the
// campaign runs through the client's prefix store and the probe path.
func TestCampaignGolden(t *testing.T) {
	t.Parallel()
	dir := filepath.Join(t.TempDir(), "store")
	var out strings.Builder
	err := runCampaign(&out, campaignOptions{
		days: 2, clients: 40, seed: 42, storeDir: dir, segmentKB: 1,
		linkage: core.LongitudinalConfig{},
	})
	if err != nil {
		t.Fatalf("runCampaign: %v\n%s", err, out.String())
	}
	report := strings.ReplaceAll(out.String(), dir, "STORE")
	checkGolden(t, "campaign", report+"\n"+storeDigests(t, dir))
}

// TestAblateGolden pins the mitigation grid's printed report at
// TestRunAblateEndToEnd's configuration, with the store root masked.
func TestAblateGolden(t *testing.T) {
	t.Parallel()
	root := filepath.Join(t.TempDir(), "grid")
	var out strings.Builder
	err := runAblate(&out, ablateOptions{
		days: 3, clients: 40, seed: 42,
		storeRoot: root, segmentKB: 64, verify: true,
		linkage: core.LongitudinalConfig{},
	})
	if err != nil {
		t.Fatalf("runAblate: %v\n%s", err, out.String())
	}
	checkGolden(t, "ablate", strings.ReplaceAll(out.String(), root, "STORE"))
}
