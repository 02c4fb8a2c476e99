package probestore

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/wire"
)

// The store's query contract now that no writer indexes what it writes:
// every index is built by a query, by scanning, and these tests hold the
// answers, the amount of scanning and the lifetime of the read handles.

// sameHistory compares two ClientHistory answers probe by probe.
func sameHistory(a, b []sbserver.Probe) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameProbe(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestQueriesInterleavedWithObserve interleaves Observe with
// ClientHistory and Clients on one writable store, across spills and
// rotations. Every answer must hold every probe observed before the
// call, in order, and equal what a fresh read-only open of the
// directory answers; and a query that follows a spill into a segment
// whose index exists must extend that index over the new bytes through
// the handle it already has, not open the file again.
func TestQueriesInterleavedWithObserve(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithMaxSegmentBytes(2048), WithSpillThreshold(256))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer mustClose(t, s)

	cookies := []string{"alice", "bob", "carol"}
	model := make(map[string][]sbserver.Probe)
	next := 0
	observe := func(n int) {
		for i := 0; i < n; i++ {
			c := cookies[next%len(cookies)]
			p := probe(c, next)
			s.Observe(p)
			model[c] = append(model[c], p)
			next++
		}
	}
	check := func(when string) {
		t.Helper()
		// The writable store answers first: its queries spill what is
		// buffered, which is what the read-only open then finds.
		all := append([]string{"nobody"}, cookies...)
		got := make(map[string][]sbserver.Probe)
		for _, c := range all {
			hist, err := s.ClientHistory(c)
			if err != nil {
				t.Fatalf("%s: ClientHistory(%s): %v", when, c, err)
			}
			if !sameHistory(hist, model[c]) {
				t.Fatalf("%s: ClientHistory(%s) has %d probes, observed %d before the call", when, c, len(hist), len(model[c]))
			}
			got[c] = hist
		}
		clients, err := s.Clients()
		if err != nil {
			t.Fatalf("%s: Clients: %v", when, err)
		}
		want := []string{}
		for _, c := range cookies {
			if len(model[c]) > 0 {
				want = append(want, c)
			}
		}
		if !reflect.DeepEqual(clients, want) {
			t.Fatalf("%s: Clients = %v, want %v", when, clients, want)
		}

		ro := mustReadOnly(t, dir)
		defer mustClose(t, ro)
		for _, c := range all {
			fresh, err := ro.ClientHistory(c)
			if err != nil {
				t.Fatalf("%s: read-only ClientHistory(%s): %v", when, c, err)
			}
			if !sameHistory(got[c], fresh) {
				t.Fatalf("%s: ClientHistory(%s) = %d probes, a fresh read-only open answers %d", when, c, len(got[c]), len(fresh))
			}
		}
		if fresh, err := ro.Clients(); err != nil || !reflect.DeepEqual(clients, fresh) {
			t.Fatalf("%s: Clients = %v, a fresh read-only open answers %v, %v", when, clients, fresh, err)
		}
	}

	check("empty store")
	observe(2) // below the spill threshold: the query's own barrier spills them
	check("first probes")

	// The tail now has an index. More probes into the same segment, then
	// the same queries: the index is extended, nothing is opened.
	segsBefore, opensBefore := s.Stats().Segments, s.Stats().SegmentOpens
	observe(3)
	if _, err := s.ClientHistory("alice"); err != nil {
		t.Fatalf("ClientHistory: %v", err)
	}
	if st := s.Stats(); st.Segments != segsBefore {
		t.Fatalf("the tail rotated (%d -> %d segments); the extension case needs one segment", segsBefore, st.Segments)
	} else if st.SegmentOpens != opensBefore {
		t.Errorf("a query after a spill into an indexed tail opened %d segment files, want 0", st.SegmentOpens-opensBefore)
	}
	s.mu.Lock()
	tail := s.segments[len(s.segments)-1]
	if tail.idx == nil || tail.idx.extent != tail.bytes {
		t.Errorf("tail index = %+v, want one covering all %d bytes", tail.idx, tail.bytes)
	}
	s.mu.Unlock()
	check("extended tail")

	for round := 0; round < 12; round++ {
		observe(17) // spills and, every few rounds, a rotation
		check(fmt.Sprintf("round %d", round))
	}
	if st := s.Stats(); st.Segments < 3 {
		t.Fatalf("want rotations, got %d segments", st.Segments)
	}
	// Every segment's index was built once and then only extended: one
	// open per segment, however many queries ran.
	if st := s.Stats(); st.SegmentOpens > uint64(st.Segments) {
		t.Errorf("%d segment opens for %d segments: an index was rebuilt", st.SegmentOpens, st.Segments)
	}
}

// TestConcurrentWritersAndQueriers runs writers and queriers on one
// writable store (run it under -race): each cookie's history must be a
// FIFO view with no gaps — probe i at position i — and never shorter
// than what had been observed when the query started.
func TestConcurrentWritersAndQueriers(t *testing.T) {
	const writers, queriers, perWriter = 4, 3, 400
	s, err := Open(t.TempDir(), WithMaxSegmentBytes(4096), WithSpillThreshold(512))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer mustClose(t, s)

	var observed [writers]atomic.Int64
	cookie := func(w int) string { return fmt.Sprintf("writer-%d", w) }
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Observe(probe(cookie(w), i))
				observed[w].Store(int64(i + 1))
			}
		}(w)
	}
	done := make(chan struct{})
	var qwg sync.WaitGroup
	for q := 0; q < queriers; q++ {
		qwg.Add(1)
		go func(q int) {
			defer qwg.Done()
			for round := 0; ; round++ {
				select {
				case <-done:
					return
				default:
				}
				w := (q + round) % writers
				floor := observed[w].Load()
				hist, err := s.ClientHistory(cookie(w))
				if err != nil {
					t.Errorf("ClientHistory(%s): %v", cookie(w), err)
					return
				}
				if int64(len(hist)) < floor {
					t.Errorf("ClientHistory(%s) has %d probes, %d were observed before the query", cookie(w), len(hist), floor)
					return
				}
				for i, p := range hist {
					if !sameProbe(p, probe(cookie(w), i)) {
						t.Errorf("ClientHistory(%s)[%d] = %+v: not the %d-th probe observed", cookie(w), i, p, i)
						return
					}
				}
				if round%8 == 0 {
					if _, err := s.Clients(); err != nil {
						t.Errorf("Clients: %v", err)
						return
					}
				}
			}
		}(q)
	}
	wg.Wait()
	close(done)
	qwg.Wait()
	for w := 0; w < writers; w++ {
		hist, err := s.ClientHistory(cookie(w))
		if err != nil || len(hist) != perWriter {
			t.Errorf("final ClientHistory(%s) = %d probes, %v; want %d", cookie(w), len(hist), err, perWriter)
		}
	}
}

// TestReadOnlyIndexOfGrowingTailIsBuiltOnce: a read-only store on a
// directory whose tail keeps growing indexes each segment once. The
// index covers at least the extent the store adopted at Open, which is
// all a read-only store answers for, so later queries neither rescan
// nor reopen however far the writer has moved on.
func TestReadOnlyIndexOfGrowingTailIsBuiltOnce(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, WithSpillThreshold(1))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer mustClose(t, w)
	for i := 0; i < 20; i++ {
		w.Observe(probe("tail-client", i))
	}

	r := mustReadOnly(t, dir)
	defer mustClose(t, r)
	first, err := r.ClientHistory("tail-client")
	if err != nil || len(first) != 20 {
		t.Fatalf("ClientHistory = %d probes, %v; want 20", len(first), err)
	}
	opens := r.Stats().SegmentOpens
	if opens != 1 {
		t.Fatalf("first query opened %d segment files, want 1", opens)
	}
	for round := 0; round < 5; round++ {
		for i := 0; i < 10; i++ {
			w.Observe(probe("tail-client", 20+10*round+i))
		}
		again, err := r.ClientHistory("tail-client")
		if err != nil {
			t.Fatalf("ClientHistory: %v", err)
		}
		if !sameHistory(again, first) {
			t.Fatalf("round %d: a read-only store's answer changed: %d probes, first %d", round, len(again), len(first))
		}
		if _, err := r.Clients(); err != nil {
			t.Fatalf("Clients: %v", err)
		}
	}
	if got := r.Stats().SegmentOpens; got != opens {
		t.Errorf("queries of an indexed, growing tail opened %d more segment files", got-opens)
	}
	r.mu.Lock()
	for _, seg := range r.segments {
		if seg.idx == nil || seg.idx.extent < seg.bytes {
			t.Errorf("segment %d: index %+v does not cover the %d bytes adopted at Open", seg.id, seg.idx, seg.bytes)
		}
	}
	r.mu.Unlock()
}

// TestEvictionBetweenLookupAndReadIsASkip: retention may evict a
// segment — and close its index's read handle — after a query has taken
// the segment's postings and before it has read the records. The query
// must come back without the segment's probes and without an error.
func TestEvictionBetweenLookupAndReadIsASkip(t *testing.T) {
	s, err := Open(t.TempDir(),
		WithMaxSegmentBytes(512), WithSpillThreshold(1), WithRetainSegments(2))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer mustClose(t, s)
	for i := 0; i < 5; i++ {
		s.Observe(probe("early-client", i))
	}
	if hist, err := s.ClientHistory("early-client"); err != nil || len(hist) != 5 {
		t.Fatalf("ClientHistory = %d probes, %v; want 5", len(hist), err)
	}

	// A query's lookup half, by hand.
	s.mu.Lock()
	seg := s.segments[0]
	want := seg.bytes
	s.mu.Unlock()
	idx, err := s.lockIndex(seg, want)
	if err != nil || idx == nil {
		t.Fatalf("lockIndex = %v, %v", idx, err)
	}
	refs, f := idx.postings["early-client"], idx.f
	s.mu.Unlock()
	if len(refs) == 0 {
		t.Fatal("the first segment's index has no record of its only client")
	}

	// Retention evicts the segment under the query.
	for i := 0; s.Stats().EvictedSegments == 0; i++ {
		s.Observe(probe("bulk-client", i))
	}
	s.mu.Lock()
	if !seg.missing || seg.idx != nil {
		t.Errorf("evicted segment: missing=%v idx=%v, want it marked and its index dropped", seg.missing, seg.idx)
	}
	s.mu.Unlock()
	if _, err := f.Stat(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("evicted segment's read handle: Stat = %v, want it closed", err)
	}

	// The query's read half.
	out, err := s.readRefs(seg, f, "early-client", refs, nil)
	if err != nil || len(out) != 0 {
		t.Errorf("read after eviction = %d probes, %v; want a clean skip", len(out), err)
	}
	// And from the top: the history is gone with its segment.
	if hist, err := s.ClientHistory("early-client"); err != nil || len(hist) != 0 {
		t.Errorf("ClientHistory after eviction = %d probes, %v; want none", len(hist), err)
	}
	if st := s.Stats(); st.WriteErrors != 0 {
		t.Errorf("writer hit errors: %+v", st)
	}
}

// TestCloseReleasesEveryReadHandle: an index's read handle lives as
// long as the index, and no index outlives Close — on a writable store
// and on a read-only one. Queries of a closed store say so.
func TestCloseReleasesEveryReadHandle(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, WithMaxSegmentBytes(512), WithSpillThreshold(1))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 60; i++ {
		w.Observe(probe(fmt.Sprintf("client-%d", i%3), i))
	}
	r := mustReadOnly(t, dir)
	for _, s := range []*Store{w, r} {
		// Every segment holds all three clients, so this indexes them all.
		if _, err := s.ClientHistory("client-0"); err != nil {
			t.Fatalf("ClientHistory: %v", err)
		}
		s.mu.Lock()
		var handles []*os.File
		for _, seg := range s.segments {
			if seg.idx == nil {
				t.Errorf("segment %d not indexed by the query", seg.id)
				continue
			}
			handles = append(handles, seg.idx.f)
		}
		s.mu.Unlock()
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		for _, seg := range s.segments {
			if seg.idx != nil {
				t.Errorf("segment %d keeps its index after Close", seg.id)
			}
		}
		for _, f := range handles {
			if _, err := f.Stat(); !errors.Is(err, os.ErrClosed) {
				t.Errorf("%s still open after Close (Stat: %v)", f.Name(), err)
			}
		}
		if _, err := s.ClientHistory("client-0"); !errors.Is(err, ErrClosed) {
			t.Errorf("ClientHistory on a closed store = %v, want ErrClosed", err)
		}
		if _, err := s.Clients(); !errors.Is(err, ErrClosed) {
			t.Errorf("Clients on a closed store = %v, want ErrClosed", err)
		}
	}
}

// TestOpenQueryCloseDoesNotLeakDescriptors counts the process's open
// descriptors around a thousand Open/query/Close rounds.
func TestOpenQueryCloseDoesNotLeakDescriptors(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts /proc/self/fd")
	}
	countFDs := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot list /proc/self/fd: %v", err)
		}
		return len(entries)
	}
	dir := t.TempDir()
	writeProbes(t, dir, 60, WithMaxSegmentBytes(512), WithSpillThreshold(1))
	rounds := 1000
	if testing.Short() {
		rounds = 100
	}
	before := countFDs()
	for i := 0; i < rounds; i++ {
		r := mustReadOnly(t, dir)
		if hist, err := r.ClientHistory("crash-client"); err != nil || len(hist) != 60 {
			t.Fatalf("round %d: ClientHistory = %d probes, %v", i, len(hist), err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", i, err)
		}
	}
	// Exact equality would also count whatever the runtime or another
	// test opened meanwhile; a leak of one handle per segment per round
	// is thousands.
	if after := countFDs(); after > before+8 {
		t.Errorf("open descriptors grew from %d to %d over %d Open/query/Close rounds", before, after, rounds)
	}
}

// TestConcurrentFirstQueriesShareOneIndex: queries that arrive together
// at a segment nobody has indexed all scan it, one scan is installed,
// and the others are dropped with the handles they opened — every
// query still answers from a complete index.
func TestConcurrentFirstQueriesShareOneIndex(t *testing.T) {
	dir := t.TempDir()
	const n = 20_000
	writeProbes(t, dir, n) // one segment, large enough that the scans overlap
	r := mustReadOnly(t, dir)
	defer mustClose(t, r)

	const queriers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if hist, err := r.ClientHistory("crash-client"); err != nil || len(hist) != n {
				t.Errorf("ClientHistory = %d probes, %v; want %d", len(hist), err, n)
			}
		}()
	}
	close(start)
	wg.Wait()

	r.mu.Lock()
	idx := r.segments[0].idx
	r.mu.Unlock()
	if idx == nil || len(idx.postings["crash-client"]) != n {
		t.Fatalf("installed index = %+v, want one with all %d records", idx, n)
	}
	if len(r.detached) != 0 {
		t.Errorf("%d handles left detached", len(r.detached))
	}
	if opens := r.Stats().SegmentOpens; opens < 1 || opens > queriers {
		t.Errorf("%d segment opens for %d simultaneous first queries", opens, queriers)
	}
}

// TestQueryOfShrunkSegmentAnswersFromWhatIsLeft: a writer that rolls a
// failed spill back truncates its tail under a read-only reader that
// adopted the longer file. The reader's query indexes what is there
// and answers from it instead of waiting for bytes that are gone.
func TestQueryOfShrunkSegmentAnswersFromWhatIsLeft(t *testing.T) {
	dir := t.TempDir()
	segs := writeProbes(t, dir, 10)
	r := mustReadOnly(t, dir)
	defer mustClose(t, r)

	var boundary int64 // end of the sixth record
	_, _, err := walkSegmentFile(segs[0].Path, segs[0].ID, func(fr *wire.ProbeFrame, off int64, n int) error {
		if fr.NumPrefixes() > 0 && fr.AppendPrefixes(nil)[0] == 5 {
			boundary = off + int64(n)
		}
		return nil
	})
	if err != nil || boundary == 0 {
		t.Fatalf("walk: boundary %d, %v", boundary, err)
	}
	if err := os.Truncate(segs[0].Path, boundary); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	for round := 0; round < 2; round++ {
		hist, err := r.ClientHistory("crash-client")
		if err != nil || len(hist) != 6 {
			t.Fatalf("round %d: ClientHistory = %d probes, %v; want the 6 that are left", round, len(hist), err)
		}
	}
}
