package sbserver

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/wire"
)

func newTestServer(t *testing.T) *Server {
	t.Helper()
	s := New(WithClock(func() time.Time { return time.Unix(1000, 0) }))
	if err := s.CreateList("goog-malware-shavar", "malware"); err != nil {
		t.Fatalf("CreateList: %v", err)
	}
	return s
}

func TestCreateListDuplicate(t *testing.T) {
	t.Parallel()
	s := newTestServer(t)
	if err := s.CreateList("goog-malware-shavar", "dup"); err == nil {
		t.Error("duplicate CreateList: want error")
	}
	names := s.ListNames()
	if len(names) != 1 || names[0] != "goog-malware-shavar" {
		t.Errorf("ListNames = %v", names)
	}
	desc, err := s.ListDescription("goog-malware-shavar")
	if err != nil || desc != "malware" {
		t.Errorf("ListDescription = %q, %v", desc, err)
	}
}

func TestUnknownListErrors(t *testing.T) {
	t.Parallel()
	s := newTestServer(t)
	if _, err := s.ListLen("nope"); !errors.Is(err, ErrUnknownList) {
		t.Errorf("ListLen(nope): %v", err)
	}
	if err := s.AddExpressions("nope", []string{"a.example/"}); !errors.Is(err, ErrUnknownList) {
		t.Errorf("AddExpressions(nope): %v", err)
	}
	if _, err := s.Download(&wire.DownloadRequest{States: []wire.ListState{{List: "nope"}}}); !errors.Is(err, ErrUnknownList) {
		t.Errorf("Download(nope): %v", err)
	}
	if _, err := s.PrefixesOf("nope"); !errors.Is(err, ErrUnknownList) {
		t.Errorf("PrefixesOf(nope): %v", err)
	}
	if _, _, err := s.DigestsOf("nope", 1); !errors.Is(err, ErrUnknownList) {
		t.Errorf("DigestsOf(nope): %v", err)
	}
	if _, err := s.ListDescription("nope"); !errors.Is(err, ErrUnknownList) {
		t.Errorf("ListDescription(nope): %v", err)
	}
	if err := s.AddOrphanPrefixes("nope", []hashx.Prefix{1}); !errors.Is(err, ErrUnknownList) {
		t.Errorf("AddOrphanPrefixes(nope): %v", err)
	}
	if err := s.RemoveExpressions("nope", []string{"x/"}); !errors.Is(err, ErrUnknownList) {
		t.Errorf("RemoveExpressions(nope): %v", err)
	}
}

func TestAddExpressionsAndFullHashes(t *testing.T) {
	t.Parallel()
	s := newTestServer(t)
	exprs := []string{"petsymposium.org/2016/cfp.php", "xhamster.com/"}
	if err := s.AddExpressions("goog-malware-shavar", exprs); err != nil {
		t.Fatalf("AddExpressions: %v", err)
	}
	n, err := s.ListLen("goog-malware-shavar")
	if err != nil || n != 2 {
		t.Fatalf("ListLen = %d, %v", n, err)
	}

	resp, err := s.FullHashes(&wire.FullHashRequest{
		ClientID: "c1",
		Prefixes: []hashx.Prefix{0xe70ee6d1}, // petsymposium.org/2016/cfp.php
	})
	if err != nil {
		t.Fatalf("FullHashes: %v", err)
	}
	if len(resp.Entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(resp.Entries))
	}
	if resp.Entries[0].Digest != hashx.Sum("petsymposium.org/2016/cfp.php") {
		t.Error("returned digest mismatch")
	}
	if resp.Entries[0].List != "goog-malware-shavar" {
		t.Errorf("entry list = %q", resp.Entries[0].List)
	}

	// The probe was logged with cookie, prefix and timestamp.
	probes := s.Probes()
	if len(probes) != 1 {
		t.Fatalf("probes = %d, want 1", len(probes))
	}
	if probes[0].ClientID != "c1" || probes[0].Prefixes[0] != 0xe70ee6d1 {
		t.Errorf("probe = %+v", probes[0])
	}
	if !probes[0].Time.Equal(time.Unix(1000, 0)) {
		t.Errorf("probe time = %v", probes[0].Time)
	}
}

func TestAddURLCanonicalizes(t *testing.T) {
	t.Parallel()
	s := newTestServer(t)
	if err := s.AddURL("goog-malware-shavar", "http://EVIL.example:8080/a/../b"); err != nil {
		t.Fatalf("AddURL: %v", err)
	}
	want := hashx.SumPrefix("evil.example/b")
	prefixes, err := s.PrefixesOf("goog-malware-shavar")
	if err != nil || len(prefixes) != 1 || prefixes[0] != want {
		t.Errorf("PrefixesOf = %v (%v), want [%v]", prefixes, err, want)
	}
	if err := s.AddURL("goog-malware-shavar", ""); err == nil {
		t.Error("AddURL(\"\"): want error")
	}
}

func TestAddDuplicateExpressionNoNewChunk(t *testing.T) {
	t.Parallel()
	s := newTestServer(t)
	if err := s.AddExpressions("goog-malware-shavar", []string{"a.example/"}); err != nil {
		t.Fatalf("AddExpressions: %v", err)
	}
	if err := s.AddExpressions("goog-malware-shavar", []string{"a.example/"}); err != nil {
		t.Fatalf("AddExpressions dup: %v", err)
	}
	resp, err := s.Download(&wire.DownloadRequest{States: []wire.ListState{{List: "goog-malware-shavar"}}})
	if err != nil {
		t.Fatalf("Download: %v", err)
	}
	if len(resp.Chunks) != 1 {
		t.Errorf("chunks = %d, want 1 (duplicate add must not emit a chunk)", len(resp.Chunks))
	}
}

func TestDownloadIncremental(t *testing.T) {
	t.Parallel()
	s := newTestServer(t)
	if err := s.AddExpressions("goog-malware-shavar", []string{"a.example/"}); err != nil {
		t.Fatalf("AddExpressions: %v", err)
	}
	if err := s.AddExpressions("goog-malware-shavar", []string{"b.example/"}); err != nil {
		t.Fatalf("AddExpressions: %v", err)
	}

	// Fresh client: both chunks.
	resp, err := s.Download(&wire.DownloadRequest{States: []wire.ListState{{List: "goog-malware-shavar", LastChunk: 0}}})
	if err != nil {
		t.Fatalf("Download: %v", err)
	}
	if len(resp.Chunks) != 2 {
		t.Fatalf("chunks = %d, want 2", len(resp.Chunks))
	}
	if resp.MinWaitSeconds != DefaultMinWaitSeconds {
		t.Errorf("MinWaitSeconds = %d", resp.MinWaitSeconds)
	}

	// Caught-up client: only chunk 2.
	resp, err = s.Download(&wire.DownloadRequest{States: []wire.ListState{{List: "goog-malware-shavar", LastChunk: 1}}})
	if err != nil {
		t.Fatalf("Download: %v", err)
	}
	if len(resp.Chunks) != 1 || resp.Chunks[0].Num != 2 {
		t.Fatalf("incremental chunks = %+v", resp.Chunks)
	}

	// Fully caught up: nothing.
	resp, err = s.Download(&wire.DownloadRequest{States: []wire.ListState{{List: "goog-malware-shavar", LastChunk: 2}}})
	if err != nil {
		t.Fatalf("Download: %v", err)
	}
	if len(resp.Chunks) != 0 {
		t.Fatalf("caught-up chunks = %d, want 0", len(resp.Chunks))
	}
}

func TestRemoveExpressionsEmitsSubChunk(t *testing.T) {
	t.Parallel()
	s := newTestServer(t)
	if err := s.AddExpressions("goog-malware-shavar", []string{"a.example/", "b.example/"}); err != nil {
		t.Fatalf("AddExpressions: %v", err)
	}
	if err := s.RemoveExpressions("goog-malware-shavar", []string{"a.example/"}); err != nil {
		t.Fatalf("RemoveExpressions: %v", err)
	}
	n, err := s.ListLen("goog-malware-shavar")
	if err != nil || n != 1 {
		t.Fatalf("ListLen = %d, %v", n, err)
	}
	resp, err := s.Download(&wire.DownloadRequest{States: []wire.ListState{{List: "goog-malware-shavar", LastChunk: 1}}})
	if err != nil {
		t.Fatalf("Download: %v", err)
	}
	if len(resp.Chunks) != 1 || resp.Chunks[0].Type != wire.ChunkSub {
		t.Fatalf("sub chunk = %+v", resp.Chunks)
	}
	// Removing something absent emits nothing.
	if err := s.RemoveExpressions("goog-malware-shavar", []string{"ghost.example/"}); err != nil {
		t.Fatalf("RemoveExpressions(ghost): %v", err)
	}
}

func TestOrphanPrefixes(t *testing.T) {
	t.Parallel()
	s := newTestServer(t)
	orphan := hashx.Prefix(0xdeadbeef)
	if err := s.AddOrphanPrefixes("goog-malware-shavar", []hashx.Prefix{orphan}); err != nil {
		t.Fatalf("AddOrphanPrefixes: %v", err)
	}
	// Orphans are live prefixes...
	n, err := s.ListLen("goog-malware-shavar")
	if err != nil || n != 1 {
		t.Fatalf("ListLen = %d, %v", n, err)
	}
	ds, live, err := s.DigestsOf("goog-malware-shavar", orphan)
	if err != nil || !live {
		t.Fatalf("DigestsOf: live=%v err=%v", live, err)
	}
	if len(ds) != 0 {
		t.Fatalf("orphan has %d digests, want 0", len(ds))
	}
	// ...that trigger communication but return no full digest.
	resp, err := s.FullHashes(&wire.FullHashRequest{ClientID: "c", Prefixes: []hashx.Prefix{orphan}})
	if err != nil {
		t.Fatalf("FullHashes: %v", err)
	}
	if len(resp.Entries) != 0 {
		t.Fatalf("orphan returned %d entries", len(resp.Entries))
	}
	if len(s.Probes()) != 1 {
		t.Error("orphan probe not logged")
	}
}

// TestSharedPrefixTwoDigests: two expressions whose digests share a prefix
// both come back for that prefix (the "2 full hashes per prefix" column of
// Table 11). Forged by orphan + expression is not possible, so we fake it
// by adding two digests with identical leading bytes.
func TestSharedPrefixTwoDigests(t *testing.T) {
	t.Parallel()
	s := newTestServer(t)
	d1 := hashx.Sum("one.example/")
	d2 := d1
	d2[31] ^= 0xff // same 32-bit prefix, different digest
	if err := s.AddDigests("goog-malware-shavar", []hashx.Digest{d1, d2}); err != nil {
		t.Fatalf("AddDigests: %v", err)
	}
	n, _ := s.ListLen("goog-malware-shavar")
	if n != 1 {
		t.Fatalf("ListLen = %d, want 1 (shared prefix)", n)
	}
	resp, err := s.FullHashes(&wire.FullHashRequest{ClientID: "c", Prefixes: []hashx.Prefix{d1.Prefix()}})
	if err != nil {
		t.Fatalf("FullHashes: %v", err)
	}
	if len(resp.Entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(resp.Entries))
	}
}

type recordingSink struct {
	mu     sync.Mutex
	probes []Probe
}

func (r *recordingSink) Observe(p Probe) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.probes = append(r.probes, p)
}

func TestSubscribe(t *testing.T) {
	t.Parallel()
	s := newTestServer(t)
	sink := &recordingSink{}
	s.Subscribe(sink)
	if _, err := s.FullHashes(&wire.FullHashRequest{ClientID: "c9", Prefixes: []hashx.Prefix{42}}); err != nil {
		t.Fatalf("FullHashes: %v", err)
	}
	s.Flush() // sink delivery is async; synchronize before reading
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.probes) != 1 || sink.probes[0].ClientID != "c9" {
		t.Errorf("sink probes = %+v", sink.probes)
	}
}

func TestConcurrentServerAccess(t *testing.T) {
	t.Parallel()
	s := newTestServer(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				expr := string(rune('a'+id)) + ".example/"
				_ = s.AddExpressions("goog-malware-shavar", []string{expr})
				_, _ = s.FullHashes(&wire.FullHashRequest{ClientID: "c", Prefixes: []hashx.Prefix{hashx.SumPrefix(expr)}})
				_, _ = s.Download(&wire.DownloadRequest{States: []wire.ListState{{List: "goog-malware-shavar"}}})
			}
		}(w)
	}
	wg.Wait()
	n, err := s.ListLen("goog-malware-shavar")
	if err != nil || n != 8 {
		t.Errorf("ListLen = %d, %v; want 8", n, err)
	}
}

// TestListHeapAtTable2Size bounds the server heap that one list of the
// paper's Table 2 size (630 428 prefixes) costs: 630 428 seeded random
// digests must take at most 40 MB after a GC. The serving index is the
// only record of a list's digests, one 40-byte entry per digest plus
// its slots; a second per-list copy (a prefix → digests map) would more
// than double the figure. Not parallel, so no other test allocates
// while it measures.
func TestListHeapAtTable2Size(t *testing.T) {
	const (
		n     = 630428
		bound = 40 << 20
	)
	rng := rand.New(rand.NewSource(2016))
	digests := make([]hashx.Digest, n)
	prefixes := make(map[hashx.Prefix]struct{}, n)
	for i := range digests {
		rng.Read(digests[i][:])
		prefixes[digests[i].Prefix()] = struct{}{}
	}
	want := len(prefixes)
	prefixes = nil
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := New()
	if err := s.CreateList("goog-malware-shavar", "malware"); err != nil {
		t.Fatalf("CreateList: %v", err)
	}
	if err := s.AddDigests("goog-malware-shavar", digests); err != nil {
		t.Fatalf("AddDigests: %v", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(digests)
	if got, err := s.ListLen("goog-malware-shavar"); err != nil || got != want {
		t.Fatalf("ListLen = %d, %v; want %d", got, err, want)
	}
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("server heap for %d digests: %.1f MB", n, float64(heap)/(1<<20))
	if heap > bound {
		t.Errorf("server heap for %d digests = %.1f MB, want <= %d MB", n, float64(heap)/(1<<20), bound>>20)
	}
}
