package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sbprivacy/internal/core"
	"sbprivacy/internal/probestore"
	"sbprivacy/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/live-window<N>.txt from the current output")

// TestLiveSnapshotGolden pins the -live final snapshot (-snapshot-out)
// of a sealed 10-day, 50-client, seed-42 campaign store at -window 0
// and -window 7 against testdata/live-window<N>.txt, and holds the
// unbounded one equal to the -probe-store -index -longitudinal replay
// snapshot of the same store. Regenerate with
// go test ./cmd/sbanalyze -run LiveSnapshotGolden -update.
func TestLiveSnapshotGolden(t *testing.T) {
	camp, err := workload.Generate(workload.Config{Days: 10, Clients: 50, Seed: 42})
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
	live := make(map[int]string)
	for _, window := range []int{0, 7} {
		name := fmt.Sprintf("live-window%d.txt", window)
		got := snapshot(name, func(out string) int {
			return runLive(dir, "", window, core.LongitudinalConfig{}, 10*time.Millisecond, time.Millisecond, out, 300*time.Millisecond)
		})
		live[window] = got
		golden := filepath.Join("testdata", name)
		if *update {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatalf("update %s: %v", golden, err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create it)", golden, err)
		}
		if got != string(want) {
			t.Errorf("-window %d snapshot differs from %s:\n--- got ---\n%s--- want ---\n%s", window, golden, got, want)
		}
	}

	all, err := parseWindow("", "")
	if err != nil {
		t.Fatalf("parseWindow: %v", err)
	}
	batch := snapshot("batch", func(out string) int {
		return runReplay(dir, index, "", all, true, core.LongitudinalConfig{}, "", out)
	})
	if live[0] != batch {
		t.Errorf("-window 0 live snapshot differs from the batch replay:\n--- live ---\n%s--- batch ---\n%s", live[0], batch)
	}
}
