package sbserver

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/wire"
)

// TestRaceHammerSharded drives every server entry point from parallel
// goroutines. Run with -race: the point is that per-list locks, the
// striped index and the probe pipeline compose without data races, and
// that the database is consistent afterwards.
func TestRaceHammerSharded(t *testing.T) {
	t.Parallel()
	s := New()
	const lists = 4
	for i := 0; i < lists; i++ {
		if err := s.CreateList(fmt.Sprintf("list-%d", i), "hammer"); err != nil {
			t.Fatalf("CreateList: %v", err)
		}
	}
	s.Subscribe(&recordingSink{})

	const workers = 8
	const iters = 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			listName := fmt.Sprintf("list-%d", id%lists)
			for i := 0; i < iters; i++ {
				expr := fmt.Sprintf("w%d.example/p%d", id, i)
				if err := s.AddExpressions(listName, []string{expr}); err != nil {
					t.Errorf("AddExpressions: %v", err)
				}
				p := hashx.SumPrefix(expr)
				resp, err := s.FullHashes(&wire.FullHashRequest{
					ClientID: fmt.Sprintf("c%d", id),
					Prefixes: []hashx.Prefix{p},
				})
				if err != nil {
					t.Errorf("FullHashes: %v", err)
				} else if len(resp.Entries) == 0 {
					t.Errorf("prefix %v invisible right after add", p)
				}
				switch i % 4 {
				case 0:
					if _, err := s.Download(&wire.DownloadRequest{
						States: []wire.ListState{{List: listName}},
					}); err != nil {
						t.Errorf("Download: %v", err)
					}
				case 1:
					if _, err := s.PrefixesOf(listName); err != nil {
						t.Errorf("PrefixesOf: %v", err)
					}
				case 2:
					if err := s.AddOrphanPrefixes(listName,
						[]hashx.Prefix{hashx.SumPrefix(fmt.Sprintf("orphan-%d-%d", id, i))}); err != nil {
						t.Errorf("AddOrphanPrefixes: %v", err)
					}
				case 3:
					_ = s.Probes()
				}
			}
		}(w)
	}
	wg.Wait()

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := len(s.Probes()); got != workers*iters {
		t.Errorf("probe log = %d, want %d", got, workers*iters)
	}
	stats := s.ProbeStats()
	if stats.Received != workers*iters || stats.Dropped != 0 {
		t.Errorf("stats = %+v", stats)
	}
	// Every worker's expressions must be fully visible.
	for w := 0; w < workers; w++ {
		listName := fmt.Sprintf("list-%d", w%lists)
		for i := 0; i < iters; i += 17 {
			p := hashx.SumPrefix(fmt.Sprintf("w%d.example/p%d", w, i))
			ds, live, err := s.DigestsOf(listName, p)
			if err != nil || !live || len(ds) != 1 {
				t.Fatalf("DigestsOf(w%d p%d): ds=%d live=%v err=%v", w, i, len(ds), live, err)
			}
		}
	}
}

// TestCloseFlushesPendingProbes pins the flush-on-Close guarantee: every
// probe recorded before Close is delivered to the log and all sinks by
// the time Close returns, even with a backlog behind a slow sink.
func TestCloseFlushesPendingProbes(t *testing.T) {
	t.Parallel()
	s := New(WithClock(func() time.Time { return time.Unix(7, 0) }))
	if err := s.CreateList("l", ""); err != nil {
		t.Fatalf("CreateList: %v", err)
	}
	slow := &recordingSink{}
	s.Subscribe(slowSink{inner: slow, delay: time.Millisecond})

	const n = 50
	for i := 0; i < n; i++ {
		if _, err := s.FullHashes(&wire.FullHashRequest{
			ClientID: "c", Prefixes: []hashx.Prefix{hashx.Prefix(i)},
		}); err != nil {
			t.Fatalf("FullHashes: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	slow.mu.Lock()
	delivered := len(slow.probes)
	slow.mu.Unlock()
	if delivered != n {
		t.Errorf("sink saw %d probes after Close, want %d", delivered, n)
	}
	if got := len(s.Probes()); got != n {
		t.Errorf("log has %d probes after Close, want %d", got, n)
	}

	// A server that is closed still serves and still observes: probes
	// recorded after Close are delivered synchronously.
	if _, err := s.FullHashes(&wire.FullHashRequest{ClientID: "late", Prefixes: []hashx.Prefix{9}}); err != nil {
		t.Fatalf("FullHashes after Close: %v", err)
	}
	probes := s.Probes()
	if len(probes) != n+1 || probes[n].ClientID != "late" {
		t.Errorf("post-Close probe missing: %d probes", len(probes))
	}
	// Close is idempotent.
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

type slowSink struct {
	inner *recordingSink
	delay time.Duration
}

func (s slowSink) Observe(p Probe) {
	time.Sleep(s.delay)
	s.inner.Observe(p)
}

// gatedSink blocks every Observe until released, to build deterministic
// pipeline backlogs.
type gatedSink struct {
	gate  chan struct{}
	inner *recordingSink
}

func (g gatedSink) Observe(p Probe) {
	<-g.gate
	g.inner.Observe(p)
}

// TestProbeOverflowDrop pins the load-shedding policy: with a saturated
// pipeline, FullHashes never blocks, excess probes are counted as
// dropped, and the survivors add up.
func TestProbeOverflowDrop(t *testing.T) {
	t.Parallel()
	s := New(WithProbeBuffer(1), WithProbeOverflow(OverflowDrop))
	gate := make(chan struct{})
	rec := &recordingSink{}
	s.Subscribe(gatedSink{gate: gate, inner: rec})

	const n = 16
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			_, _ = s.FullHashes(&wire.FullHashRequest{ClientID: "c", Prefixes: []hashx.Prefix{hashx.Prefix(i)}})
		}
	}()
	select {
	case <-done: // never blocked: drop policy worked
	case <-time.After(5 * time.Second):
		t.Fatal("FullHashes blocked under OverflowDrop")
	}
	close(gate)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	stats := s.ProbeStats()
	if stats.Received != n {
		t.Errorf("Received = %d, want %d", stats.Received, n)
	}
	// With a gated drainer and buffer 1, at most 2 probes can be in
	// flight while the rest arrive; something must have been shed.
	if stats.Dropped == 0 {
		t.Error("Dropped = 0, want > 0 under a saturated pipeline")
	}
	if got := uint64(len(s.Probes())); got != stats.Received-stats.Dropped {
		t.Errorf("log = %d, want Received-Dropped = %d", got, stats.Received-stats.Dropped)
	}
}

// TestProbeLogLimitRing pins the rotating log: only the most recent n
// probes are retained, in order, and evictions are counted. Sinks still
// see everything.
func TestProbeLogLimitRing(t *testing.T) {
	t.Parallel()
	s := New(WithProbeLogLimit(4))
	rec := &recordingSink{}
	s.Subscribe(rec)
	// The pipeline logs in record order, so the retained window is
	// exact.
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := s.FullHashes(&wire.FullHashRequest{
			ClientID: "c", Prefixes: []hashx.Prefix{hashx.Prefix(i)},
		}); err != nil {
			t.Fatalf("FullHashes: %v", err)
		}
	}
	probes := s.Probes()
	if len(probes) != 4 {
		t.Fatalf("ring kept %d probes, want 4", len(probes))
	}
	for i, p := range probes {
		if want := hashx.Prefix(n - 4 + i); p.Prefixes[0] != want {
			t.Errorf("probes[%d] prefix = %v, want %v (chronological ring order)", i, p.Prefixes[0], want)
		}
	}
	stats := s.ProbeStats()
	if stats.Evicted != n-4 {
		t.Errorf("Evicted = %d, want %d", stats.Evicted, n-4)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.probes) != n {
		t.Errorf("sink saw %d probes, want all %d despite log limit", len(rec.probes), n)
	}
}

// TestFullHashesBatch pins the batch API: responses line up with
// requests, match what sequential calls return, and every request is
// logged as its own probe.
func TestFullHashesBatch(t *testing.T) {
	t.Parallel()
	s := newTestServer(t)
	exprs := []string{"a.example/", "b.example/", "c.example/"}
	if err := s.AddExpressions("goog-malware-shavar", exprs); err != nil {
		t.Fatalf("AddExpressions: %v", err)
	}
	reqs := make([]*wire.FullHashRequest, len(exprs))
	for i, e := range exprs {
		reqs[i] = &wire.FullHashRequest{
			ClientID: fmt.Sprintf("c%d", i),
			Prefixes: []hashx.Prefix{hashx.SumPrefix(e)},
		}
	}
	resps, err := s.FullHashesBatch(reqs)
	if err != nil {
		t.Fatalf("FullHashesBatch: %v", err)
	}
	if len(resps) != len(reqs) {
		t.Fatalf("resps = %d, want %d", len(resps), len(reqs))
	}
	for i, resp := range resps {
		if len(resp.Entries) != 1 || resp.Entries[0].Digest != hashx.Sum(exprs[i]) {
			t.Errorf("resp[%d] = %+v", i, resp.Entries)
		}
		if resp.CacheSeconds != DefaultCacheSeconds {
			t.Errorf("resp[%d].CacheSeconds = %d", i, resp.CacheSeconds)
		}
	}
	probes := s.Probes()
	if len(probes) != len(reqs) {
		t.Fatalf("probes = %d, want one per batched request", len(probes))
	}
	for i, p := range probes {
		if p.ClientID != fmt.Sprintf("c%d", i) {
			t.Errorf("probes[%d].ClientID = %q", i, p.ClientID)
		}
	}
}

// TestAddURLsBatch: a URL batch canonicalizes every entry and lands as
// one add chunk; a bad URL rejects the whole batch before any lock.
func TestAddURLsBatch(t *testing.T) {
	t.Parallel()
	s := newTestServer(t)
	if err := s.AddURLs("goog-malware-shavar", []string{
		"http://EVIL.example:8080/a/../b",
		"http://phish.example/",
	}); err != nil {
		t.Fatalf("AddURLs: %v", err)
	}
	n, err := s.ListLen("goog-malware-shavar")
	if err != nil || n != 2 {
		t.Fatalf("ListLen = %d, %v", n, err)
	}
	resp, err := s.Download(&wire.DownloadRequest{States: []wire.ListState{{List: "goog-malware-shavar"}}})
	if err != nil {
		t.Fatalf("Download: %v", err)
	}
	if len(resp.Chunks) != 1 || len(resp.Chunks[0].Prefixes) != 2 {
		t.Fatalf("chunks = %+v, want one chunk with both prefixes", resp.Chunks)
	}
	ds, live, err := s.DigestsOf("goog-malware-shavar", hashx.SumPrefix("evil.example/b"))
	if err != nil || !live || len(ds) != 1 {
		t.Errorf("canonicalized URL not found: live=%v ds=%d err=%v", live, len(ds), err)
	}
	if err := s.AddURLs("goog-malware-shavar", []string{"http://ok.example/", ""}); err == nil {
		t.Error("AddURLs with empty URL: want error")
	}
	if n, _ := s.ListLen("goog-malware-shavar"); n != 2 {
		t.Errorf("failed batch mutated the list: len = %d", n)
	}
}

// TestFullHashesListOrderAcrossShards: when one prefix matches digests
// in several lists, entries come back in list-creation order regardless
// of insertion order — the striped index preserves the seed semantics.
func TestFullHashesListOrderAcrossShards(t *testing.T) {
	t.Parallel()
	s := New()
	if err := s.CreateList("first", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateList("second", ""); err != nil {
		t.Fatal(err)
	}
	d1 := hashx.Sum("shared.example/")
	d2 := d1
	d2[31] ^= 0xff // same 32-bit prefix, different digest
	// Insert into the later list first: rank order must still win.
	if err := s.AddDigests("second", []hashx.Digest{d2}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDigests("first", []hashx.Digest{d1}); err != nil {
		t.Fatal(err)
	}
	resp, err := s.FullHashes(&wire.FullHashRequest{ClientID: "c", Prefixes: []hashx.Prefix{d1.Prefix()}})
	if err != nil {
		t.Fatalf("FullHashes: %v", err)
	}
	if len(resp.Entries) != 2 {
		t.Fatalf("entries = %+v", resp.Entries)
	}
	if resp.Entries[0].List != "first" || resp.Entries[1].List != "second" {
		t.Errorf("entries out of list-creation order: %q, %q",
			resp.Entries[0].List, resp.Entries[1].List)
	}
}

// TestRemoveExpressionsPrunesIndex: removing an expression makes it
// vanish from the serving index, not just the list bookkeeping.
func TestRemoveExpressionsPrunesIndex(t *testing.T) {
	t.Parallel()
	s := newTestServer(t)
	if err := s.AddExpressions("goog-malware-shavar", []string{"a.example/", "b.example/"}); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveExpressions("goog-malware-shavar", []string{"a.example/"}); err != nil {
		t.Fatal(err)
	}
	resp, err := s.FullHashes(&wire.FullHashRequest{
		ClientID: "c",
		Prefixes: []hashx.Prefix{hashx.SumPrefix("a.example/"), hashx.SumPrefix("b.example/")},
	})
	if err != nil {
		t.Fatalf("FullHashes: %v", err)
	}
	if len(resp.Entries) != 1 || resp.Entries[0].Digest != hashx.Sum("b.example/") {
		t.Errorf("entries after removal = %+v", resp.Entries)
	}
}

// TestSubscribeIsCutPoint: a sink registered after a request never
// observes it, even though delivery is asynchronous — the sink list is
// captured when the probe is recorded, as it was under the seed's
// synchronous fan-out.
func TestSubscribeIsCutPoint(t *testing.T) {
	t.Parallel()
	s := New()
	early := &recordingSink{}
	s.Subscribe(early)
	if _, err := s.FullHashes(&wire.FullHashRequest{ClientID: "before", Prefixes: []hashx.Prefix{1}}); err != nil {
		t.Fatal(err)
	}
	late := &recordingSink{}
	s.Subscribe(late)
	if _, err := s.FullHashes(&wire.FullHashRequest{ClientID: "after", Prefixes: []hashx.Prefix{2}}); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	early.mu.Lock()
	if len(early.probes) != 2 {
		t.Errorf("early sink saw %d probes, want 2", len(early.probes))
	}
	early.mu.Unlock()
	late.mu.Lock()
	defer late.mu.Unlock()
	if len(late.probes) != 1 || late.probes[0].ClientID != "after" {
		t.Errorf("late sink saw %+v, want only the post-Subscribe probe", late.probes)
	}
}

// TestFlushIsBarrier: Flush returns only after previously recorded
// probes reached the sinks.
func TestFlushIsBarrier(t *testing.T) {
	t.Parallel()
	s := New()
	rec := &recordingSink{}
	s.Subscribe(slowSink{inner: rec, delay: time.Millisecond})
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := s.FullHashes(&wire.FullHashRequest{ClientID: "c", Prefixes: []hashx.Prefix{1}}); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.probes) != n {
		t.Errorf("after Flush sink saw %d probes, want %d", len(rec.probes), n)
	}
}
