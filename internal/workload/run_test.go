package workload

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"sbprivacy/internal/mitigation"
	"sbprivacy/internal/probestore"
	"sbprivacy/internal/sbclient"
	"sbprivacy/internal/sbserver"
)

// runIntoStore runs the test campaign into a fresh probe store at dir
// and returns the run stats.
func runIntoStore(t *testing.T, dir string) *RunStats {
	t.Helper()
	camp, err := Generate(testConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	store, err := probestore.Open(dir,
		probestore.WithMaxSegmentBytes(1024), // force several rotations
		probestore.WithSpillThreshold(256))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	stats, err := camp.Run(context.Background(), store)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}
	return stats
}

// storeFiles returns name → content for every segment and sidecar file
// in a store directory.
func storeFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	out := make(map[string][]byte)
	for _, e := range entries {
		if e.Name() == "LOCK" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("ReadFile %s: %v", e.Name(), err)
		}
		out[e.Name()] = raw
	}
	return out
}

// TestRunByteIdentical is the campaign determinism guarantee at its
// strongest: two same-seed runs persist byte-identical probe stores —
// same segment files, same sidecars, same bytes.
func TestRunByteIdentical(t *testing.T) {
	t.Parallel()
	dirA, dirB := t.TempDir(), t.TempDir()
	statsA := runIntoStore(t, dirA)
	statsB := runIntoStore(t, dirB)
	if statsA.Probes != statsB.Probes || statsA.Events != statsB.Events {
		t.Fatalf("run stats differ: %+v vs %+v", statsA, statsB)
	}
	filesA, filesB := storeFiles(t, dirA), storeFiles(t, dirB)
	var names []string
	for n := range filesA {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(filesA) != len(filesB) {
		t.Fatalf("file sets differ: %d vs %d files", len(filesA), len(filesB))
	}
	segs := 0
	for _, n := range names {
		b, ok := filesB[n]
		if !ok {
			t.Fatalf("file %s missing from second run", n)
		}
		if !bytes.Equal(filesA[n], b) {
			t.Errorf("file %s differs between same-seed runs (%d vs %d bytes)", n, len(filesA[n]), len(b))
		}
		if filepath.Ext(n) == ".plog" {
			segs++
		}
	}
	if segs < 2 {
		t.Errorf("campaign fit in %d segments; want rotation to matter", segs)
	}
}

// TestRunProbesAndClock checks the run actually leaked probes, stamped
// them with virtual time, and preserved them all into the store.
func TestRunProbesAndClock(t *testing.T) {
	t.Parallel()
	camp, err := Generate(testConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	dir := t.TempDir()
	store, err := probestore.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	stats, err := camp.Run(context.Background(), store)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}
	if stats.Probes == 0 || stats.FullHashRequests == 0 {
		t.Fatalf("campaign leaked nothing: %+v", stats)
	}
	if uint64(stats.FullHashRequests) != stats.Probes {
		t.Errorf("client sent %d full-hash requests but provider recorded %d probes",
			stats.FullHashRequests, stats.Probes)
	}
	st := store.Stats()
	if st.Persisted != stats.Probes {
		t.Errorf("store persisted %d of %d probes", st.Persisted, stats.Probes)
	}

	ro, err := probestore.Open(dir, probestore.ReadOnly())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	// The schedule is time-sorted and the server's probe pipeline
	// delivers in record order, so replayed timestamps never decrease
	// across the whole store, not just per client. Every timestamp must
	// be virtual campaign time, not wall time.
	end := camp.Config.Start.Add(3 * 24 * time.Hour)
	var last time.Time
	n := 0
	if err := ro.Replay(func(p sbserver.Probe) error {
		if p.Time.Before(camp.Config.Start) || !p.Time.Before(end) {
			t.Fatalf("probe at %v outside the virtual campaign window", p.Time)
		}
		if p.Time.Before(last) {
			t.Fatalf("probe %d (client %s) out of time order: %v after %v", n, p.ClientID, p.Time, last)
		}
		last = p.Time
		n++
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if uint64(n) != stats.Probes {
		t.Errorf("replayed %d probes, want %d", n, stats.Probes)
	}
}

func TestRunHonorsContext(t *testing.T) {
	t.Parallel()
	camp, err := Generate(testConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := camp.Run(ctx); err == nil {
		t.Error("Run with cancelled context: want error")
	}
}

// runPolicyIntoStore runs the test campaign under a dummy-padding
// policy into dir.
func runPolicyIntoStore(t *testing.T, dir string) *RunStats {
	t.Helper()
	camp, err := Generate(testConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	store, err := probestore.Open(dir,
		probestore.WithMaxSegmentBytes(1024),
		probestore.WithSpillThreshold(256))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	stats, err := camp.RunWith(context.Background(), RunOptions{
		Policy: func(string) sbclient.QueryPolicy { return mitigation.DummyPolicy{K: 2} },
		Sinks:  []sbserver.ProbeSink{store},
	})
	if err != nil {
		t.Fatalf("RunWith: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}
	return stats
}

// TestRunWithPolicyByteIdentical extends the determinism guarantee to
// policy-equipped runs: two same-seed runs under the same deterministic
// policy persist byte-identical stores — the property every ablation
// cell relies on.
func TestRunWithPolicyByteIdentical(t *testing.T) {
	t.Parallel()
	dirA, dirB := t.TempDir(), t.TempDir()
	statsA := runPolicyIntoStore(t, dirA)
	statsB := runPolicyIntoStore(t, dirB)
	if !reflect.DeepEqual(statsA, statsB) {
		t.Fatalf("run stats differ: %+v vs %+v", statsA, statsB)
	}
	if statsA.DummyPrefixesSent == 0 {
		t.Fatal("dummy policy sent no dummies")
	}
	if statsA.RealPrefixesSent+statsA.DummyPrefixesSent != statsA.PrefixesSent {
		t.Fatalf("real %d + dummy %d != total %d",
			statsA.RealPrefixesSent, statsA.DummyPrefixesSent, statsA.PrefixesSent)
	}
	filesA, filesB := storeFiles(t, dirA), storeFiles(t, dirB)
	if len(filesA) != len(filesB) {
		t.Fatalf("file sets differ: %d vs %d files", len(filesA), len(filesB))
	}
	for n, a := range filesA {
		if !bytes.Equal(a, filesB[n]) {
			t.Errorf("file %s differs between same-seed policy runs", n)
		}
	}
	// A policy run must also differ from the vanilla run: the padding
	// reaches the wire.
	dirC := t.TempDir()
	vanilla := runIntoStore(t, dirC)
	if vanilla.PrefixesSent >= statsA.PrefixesSent {
		t.Errorf("padded run sent %d prefixes, vanilla %d — padding missing",
			statsA.PrefixesSent, vanilla.PrefixesSent)
	}
}
