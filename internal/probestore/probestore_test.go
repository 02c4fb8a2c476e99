package probestore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/sbserver"
)

// mustClose closes a store at test cleanup, failing the test on a
// noted write error rather than discarding it (the flusherr contract).
func mustClose(t testing.TB, s *Store) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Errorf("store close: %v", err)
	}
}

// probe builds a deterministic test probe for client c at logical time i.
func probe(c string, i int) sbserver.Probe {
	return sbserver.Probe{
		Time:     time.Unix(1457_000_000+int64(i), int64(i)*1000),
		ClientID: c,
		Prefixes: []hashx.Prefix{hashx.Prefix(i), hashx.Prefix(i * 7)},
	}
}

// sameProbe compares probes field-by-field using time.Equal, since the
// disk round trip drops the monotonic clock reading.
func sameProbe(a, b sbserver.Probe) bool {
	return a.Time.Equal(b.Time) && a.ClientID == b.ClientID &&
		reflect.DeepEqual(a.Prefixes, b.Prefixes)
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var want []sbserver.Probe
	for i := 0; i < 100; i++ {
		p := probe(fmt.Sprintf("client-%d", i%5), i)
		want = append(want, p)
		s.Observe(p)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := s.Stats()
	if st.Received != 100 || st.Persisted != 100 || st.WriteErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}

	// Reopen read-only and replay everything.
	r, err := Open(dir, ReadOnly())
	if err != nil {
		t.Fatalf("Open read-only: %v", err)
	}
	var got []sbserver.Probe
	if err := r.Replay(func(p sbserver.Probe) error {
		got = append(got, p)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d probes, want %d", len(got), len(want))
	}
	// The store has one write buffer, so replay returns the Observe
	// order; check each client's share of it, the order the tracking
	// machinery reads.
	perClient := func(ps []sbserver.Probe) map[string][]sbserver.Probe {
		m := make(map[string][]sbserver.Probe)
		for _, p := range ps {
			m[p.ClientID] = append(m[p.ClientID], p)
		}
		return m
	}
	wantBy, gotBy := perClient(want), perClient(got)
	for c, ws := range wantBy {
		gs := gotBy[c]
		if len(gs) != len(ws) {
			t.Fatalf("client %s: %d probes, want %d", c, len(gs), len(ws))
		}
		for i := range ws {
			if !sameProbe(gs[i], ws[i]) {
				t.Errorf("client %s probe %d = %+v, want %+v", c, i, gs[i], ws[i])
			}
		}
	}

	// ClientHistory answers the same question through the index.
	hist, err := r.ClientHistory("client-2")
	if err != nil {
		t.Fatalf("ClientHistory: %v", err)
	}
	if len(hist) != len(wantBy["client-2"]) {
		t.Fatalf("history has %d probes, want %d", len(hist), len(wantBy["client-2"]))
	}
	for i, p := range wantBy["client-2"] {
		if !sameProbe(hist[i], p) {
			t.Errorf("history[%d] = %+v, want %+v", i, hist[i], p)
		}
	}

	clients, err := r.Clients()
	if err != nil {
		t.Fatalf("Clients: %v", err)
	}
	if len(clients) != 5 || clients[0] != "client-0" || clients[4] != "client-4" {
		t.Errorf("clients = %v", clients)
	}
}

func TestStoreRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments and aggressive spilling force many rotations.
	s, err := Open(dir,
		WithMaxSegmentBytes(256),
		WithSpillThreshold(1),
		WithRetainSegments(3),
	)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		s.Observe(probe("rotating-client", i))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := s.Stats()
	if st.Segments > 3 {
		t.Errorf("segments = %d, want <= 3", st.Segments)
	}
	if st.EvictedSegments == 0 || st.EvictedRecords == 0 {
		t.Errorf("expected evictions, stats = %+v", st)
	}
	if st.Received != n || st.Persisted != n {
		t.Errorf("stats = %+v", st)
	}

	// The survivors are exactly the newest probes, in order.
	r, err := Open(dir, ReadOnly())
	if err != nil {
		t.Fatalf("Open read-only: %v", err)
	}
	var got []sbserver.Probe
	if err := r.Replay(func(p sbserver.Probe) error {
		got = append(got, p)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if uint64(len(got))+st.EvictedRecords != n {
		t.Fatalf("replayed %d + evicted %d != %d", len(got), st.EvictedRecords, n)
	}
	first := int(got[0].Prefixes[0])
	for i, p := range got {
		if int(p.Prefixes[0]) != first+i {
			t.Fatalf("gap in retained window at %d: %+v", i, p)
		}
	}
	if int(got[len(got)-1].Prefixes[0]) != n-1 {
		t.Errorf("newest retained probe = %+v, want index %d", got[len(got)-1], n-1)
	}
}

// TestStoreRetentionAppliedAtOpen: a restart with tighter limits
// enforces them immediately rather than waiting for the next rotation.
func TestStoreRetentionAppliedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithMaxSegmentBytes(256), WithSpillThreshold(1))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 200; i++ {
		s.Observe(probe("c", i))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	before := len(s.Segments())
	if before <= 2 {
		t.Fatalf("want many segments, got %d", before)
	}

	s2, err := Open(dir, WithMaxSegmentBytes(256), WithRetainSegments(2))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer mustClose(t, s2)
	if got := len(s2.Segments()); got > 2 {
		t.Errorf("segments after reopen = %d, want <= 2", got)
	}
	if st := s2.Stats(); st.EvictedSegments == 0 {
		t.Errorf("expected open-time evictions: %+v", st)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	segFiles := 0
	for _, e := range entries {
		if _, ok := parseSegmentName(e.Name()); ok {
			segFiles++
		}
	}
	if segFiles > 2 {
		t.Errorf("%d segment files left on disk, want <= 2", segFiles)
	}
}

func TestStoreRetainBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir,
		WithMaxSegmentBytes(512),
		WithSpillThreshold(1),
		WithRetainBytes(2048),
	)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 1000; i++ {
		s.Observe(probe("c", i))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := s.Stats()
	// The bound is enforced at rotation, so the store may briefly hold
	// one extra segment's worth before pruning.
	if st.LiveBytes > 2048+512 {
		t.Errorf("live bytes = %d, want <= %d", st.LiveBytes, 2048+512)
	}
	if st.EvictedSegments == 0 {
		t.Errorf("expected evictions, stats = %+v", st)
	}
}

func TestStoreAppendAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.Observe(probe("a", 1))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen writable: the tail segment still has room, so the next
	// spill appends to it instead of creating a new file.
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := s2.Stats().Persisted; got != 1 {
		t.Fatalf("recovered persisted = %d, want 1", got)
	}
	s2.Observe(probe("a", 2))
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if segs := s2.Segments(); len(segs) != 1 {
		t.Errorf("segments = %+v, want a single appended-to file", segs)
	}
	hist, err := mustReadOnly(t, dir).ClientHistory("a")
	if err != nil {
		t.Fatalf("ClientHistory: %v", err)
	}
	if len(hist) != 2 || hist[0].Prefixes[0] != 1 || hist[1].Prefixes[0] != 2 {
		t.Errorf("history = %+v", hist)
	}
}

func TestStoreConcurrentObserve(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithMaxSegmentBytes(4096), WithSpillThreshold(512))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const (
		goroutines = 8
		perG       = 200
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := fmt.Sprintf("client-%d", g)
			for i := 0; i < perG; i++ {
				s.Observe(probe(c, i))
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := s.Stats()
	if st.Persisted != goroutines*perG || st.WriteErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	for g := 0; g < goroutines; g++ {
		hist, err := mustReadOnly(t, dir).ClientHistory(fmt.Sprintf("client-%d", g))
		if err != nil {
			t.Fatalf("ClientHistory: %v", err)
		}
		if len(hist) != perG {
			t.Fatalf("client-%d history = %d probes, want %d", g, len(hist), perG)
		}
		for i, p := range hist {
			if int(p.Prefixes[0]) != i {
				t.Fatalf("client-%d history out of order at %d: %+v", g, i, p)
			}
		}
	}
}

func TestStoreObserveAfterCloseIsCountedNotWritten(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s.Observe(probe("late", 1))
	// The probe is lost by design; the loss must be visible.
	if st := s.Stats(); st.WriteErrors == 0 {
		t.Errorf("late observe not counted: %+v", st)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("second Close = %v, want ErrClosed", err)
	}
}

func TestReadOnlyRejectsMissingDirAndWrites(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope"), ReadOnly()); err == nil {
		t.Error("read-only open of a missing dir succeeded")
	}
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	w.Observe(probe("x", 1))
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r := mustReadOnly(t, dir)
	r.Observe(probe("x", 2))
	if st := r.Stats(); st.WriteErrors == 0 {
		t.Errorf("read-only observe not counted: %+v", st)
	}
}

func TestStoreSingleWriterLock(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrLocked) {
		t.Errorf("second writable Open = %v, want ErrLocked", err)
	}
	// Read-only analysis of a live store stays allowed.
	s.Observe(probe("x", 1))
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if _, err := Open(dir, ReadOnly()); err != nil {
		t.Errorf("read-only Open of a locked store: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The lock dies with the holder; a new writer may take over.
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestParseSegmentName(t *testing.T) {
	cases := []struct {
		name string
		id   uint64
		ok   bool
	}{
		{"seg-00000001.plog", 1, true},
		{"seg-99999999.plog", 99999999, true},
		// Ids wider than the 8-digit padding must still parse: a
		// long-lived store's ids grow monotonically and never reset.
		{"seg-100000000.plog", 100000000, true},
		{"seg-.plog", 0, false},
		{"seg-x.plog", 0, false},
		{"seg-00000001.tmp", 0, false},
		{"LOCK", 0, false},
		{"other.plog", 0, false},
	}
	for _, c := range cases {
		id, ok := parseSegmentName(c.name)
		if id != c.id || ok != c.ok {
			t.Errorf("parseSegmentName(%q) = %d, %v; want %d, %v", c.name, id, ok, c.id, c.ok)
		}
	}
}

func mustReadOnly(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, ReadOnly())
	if err != nil {
		t.Fatalf("Open read-only: %v", err)
	}
	return s
}
