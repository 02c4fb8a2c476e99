package sbclient

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"sbprivacy/internal/prefixdb"
	"sbprivacy/internal/wire"
)

// TestSaveLoadRoundTrip: a restarted client restores its database and
// chunk positions, so the next update is incremental, not a full
// re-download.
func TestSaveLoadRoundTrip(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	f.blacklist(t, "evil.example/", "bad.example/page.html")

	var buf bytes.Buffer
	if err := f.client.SaveState(&buf); err != nil {
		t.Fatalf("SaveState: %v", err)
	}

	// A fresh client ("after restart") with the same list set.
	restarted := New(LocalTransport{Server: f.server}, []string{testList},
		WithClock(f.clock.now), WithCookie("restarted"))
	if restarted.LocalPrefixCount(testList) != 0 {
		t.Fatal("fresh client not empty")
	}
	if err := restarted.LoadState(&buf); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	if restarted.LocalPrefixCount(testList) != 2 {
		t.Fatalf("restored prefix count = %d", restarted.LocalPrefixCount(testList))
	}

	// Lookups work straight from the restored database.
	v, err := restarted.CheckURL(context.Background(), "http://evil.example/")
	if err != nil {
		t.Fatalf("CheckURL: %v", err)
	}
	if v.Safe {
		t.Error("restored client lost the blacklist")
	}

	// The server adds one more entry; the restored client's incremental
	// update fetches only the new chunk.
	if err := f.server.AddExpressions(testList, []string{"worse.example/"}); err != nil {
		t.Fatalf("AddExpressions: %v", err)
	}
	if err := restarted.Update(context.Background(), true); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if restarted.LocalPrefixCount(testList) != 3 {
		t.Errorf("post-update count = %d", restarted.LocalPrefixCount(testList))
	}
}

// TestSaveLoadWithDeltaStore: persistence works across store kinds.
func TestSaveLoadWithDeltaStore(t *testing.T) {
	t.Parallel()
	f := newFixture(t, WithStoreFactory(func() prefixdb.Updatable {
		return prefixdb.NewDeltaStore(nil)
	}))
	f.blacklist(t, "evil.example/")
	var buf bytes.Buffer
	if err := f.client.SaveState(&buf); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	restarted := New(LocalTransport{Server: f.server}, []string{testList},
		WithClock(f.clock.now),
		WithStoreFactory(func() prefixdb.Updatable { return prefixdb.NewDeltaStore(nil) }))
	if err := restarted.LoadState(&buf); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	if restarted.LocalPrefixCount(testList) != 1 {
		t.Errorf("restored count = %d", restarted.LocalPrefixCount(testList))
	}
}

// wrappedStore embeds a store, as instrumenting wrappers do: it has only
// the methods of Updatable, and gets them by promotion.
type wrappedStore struct{ prefixdb.Updatable }

// TestSaveLoadThroughWrappedStore: SaveState reads a wrapped store's
// prefixes through the Updatable interface. Saving none next to the
// list's chunk number would restart the client with an empty database
// that believes itself current.
func TestSaveLoadThroughWrappedStore(t *testing.T) {
	t.Parallel()
	wrapped := WithStoreFactory(func() prefixdb.Updatable {
		return wrappedStore{prefixdb.NewDeltaStore(nil)}
	})
	f := newFixture(t, wrapped)
	f.blacklist(t, "evil.example/", "bad.example/page.html")
	var buf bytes.Buffer
	if err := f.client.SaveState(&buf); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	restarted := New(LocalTransport{Server: f.server}, []string{testList},
		WithClock(f.clock.now), wrapped)
	if err := restarted.LoadState(&buf); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	if got := restarted.LocalPrefixCount(testList); got != 2 {
		t.Errorf("restored count = %d, want 2", got)
	}
}

// TestLoadStateSkipsUnknownLists: state for lists the client no longer
// syncs is ignored without error.
func TestLoadStateSkipsUnknownLists(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	f.blacklist(t, "evil.example/")
	var buf bytes.Buffer
	if err := f.client.SaveState(&buf); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	other := New(LocalTransport{Server: f.server}, []string{"some-other-list"},
		WithClock(f.clock.now))
	if err := other.LoadState(&buf); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	if other.LocalPrefixCount("some-other-list") != 0 {
		t.Error("unknown-list data leaked into another list")
	}
}

// TestLoadStateRejectsCorruption: truncated or corrupted state files
// produce ErrBadStateFile, never partial silent loads of garbage.
func TestLoadStateRejectsCorruption(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	f.blacklist(t, "evil.example/")
	var buf bytes.Buffer
	if err := f.client.SaveState(&buf); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	raw := buf.Bytes()

	fresh := func() *Client {
		return New(LocalTransport{Server: f.server}, []string{testList},
			WithClock(f.clock.now))
	}
	// Bad magic.
	bad := append([]byte{}, raw...)
	bad[0] ^= 0xff
	if err := fresh().LoadState(bytes.NewReader(bad)); !errors.Is(err, ErrBadStateFile) {
		t.Errorf("bad magic: err = %v", err)
	}
	// Bad version.
	bad = append([]byte{}, raw...)
	bad[1] = 99
	if err := fresh().LoadState(bytes.NewReader(bad)); !errors.Is(err, ErrBadStateFile) {
		t.Errorf("bad version: err = %v", err)
	}
	// A sub chunk, and a list that appears twice.
	for name, state := range map[string]wire.DownloadResponse{
		"sub chunk": {Chunks: []wire.Chunk{{List: testList, Num: 1, Type: wire.ChunkSub}}},
		"list twice": {Chunks: []wire.Chunk{
			{List: testList, Num: 1, Type: wire.ChunkAdd},
			{List: testList, Num: 2, Type: wire.ChunkAdd},
		}},
	} {
		var enc bytes.Buffer
		if err := state.Encode(&enc); err != nil {
			t.Fatalf("%s: Encode: %v", name, err)
		}
		if err := fresh().LoadState(&enc); !errors.Is(err, ErrBadStateFile) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
	// Truncations at every byte boundary fail cleanly.
	for cut := 0; cut < len(raw); cut++ {
		if err := fresh().LoadState(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d loaded successfully", cut)
		}
	}
	// Arbitrary garbage never panics.
	check := func(garbage []byte) bool {
		_ = fresh().LoadState(bytes.NewReader(garbage))
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLoadStateClearsCache: restored state must not resurrect stale
// full-hash cache entries.
func TestLoadStateClearsCache(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	f.blacklist(t, "evil.example/")
	ctx := context.Background()
	if _, err := f.client.CheckURL(ctx, "http://evil.example/"); err != nil {
		t.Fatalf("CheckURL: %v", err)
	}
	var buf bytes.Buffer
	if err := f.client.SaveState(&buf); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	if err := f.client.LoadState(&buf); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	v, err := f.client.CheckURL(ctx, "http://evil.example/")
	if err != nil {
		t.Fatalf("CheckURL: %v", err)
	}
	if v.FromCache {
		t.Error("cache survived LoadState")
	}
}

// TestLoadStateHostileCountAllocatesLittle: a state file that declares
// far more prefixes than it carries fails without allocating for the
// declared count. Each input is 13 bytes: a file in the client's former
// "SBST" format declaring 2^26 prefixes, and two download responses
// whose one chunk declares 2^26 and 2^21 (the wire limit) prefixes. Not
// parallel: TotalAlloc is process-wide.
func TestLoadStateHostileCountAllocatesLittle(t *testing.T) {
	inputs := map[string][]byte{
		"SBST 2^26":     {'S', 'B', 'S', 'T', 1, 1, 1, 'x', 0, 0x80, 0x80, 0x80, 0x20},
		"response 2^26": {0x53, 1, 2, 0, 1, 1, 'x', 0, 1, 0x80, 0x80, 0x80, 0x20},
		"response 2^21": {0x53, 1, 2, 0, 1, 1, 'x', 0, 1, 0x80, 0x80, 0x80, 0x01},
	}
	c := New(LocalTransport{}, []string{testList})
	for name, in := range inputs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.LoadState(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadStateFile) {
			t.Errorf("%s: err = %v, want ErrBadStateFile", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
			t.Errorf("%s: allocated %d MiB for a %d-byte file", name, got>>20, len(in))
		}
	}
}
