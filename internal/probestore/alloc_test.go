package probestore

import (
	"fmt"
	"os"
	"testing"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/sbserver"
)

// The allocation budget of the store's two hot loops, pinned at what
// was measured when the write side stopped indexing: a probe is written
// without an allocation, a segment is indexed with allocations that do
// not grow with its records, and a query of an indexed segment costs a
// fixed handful.

// TestObserveSteadyStateDoesNotAllocate: with the write buffer grown
// and no spill in the window, Observe is an encode into the buffer and
// a counter.
func TestObserveSteadyStateDoesNotAllocate(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer mustClose(t, s)
	p := sbserver.Probe{ClientID: "steady-client", Prefixes: []hashx.Prefix{1, 2}}
	// One spill leaves the buffer empty at its full capacity.
	for s.Stats().Persisted == 0 {
		s.Observe(p)
	}
	const window = 1000 // x ~25 B: well inside the 64 KiB threshold
	if allocs := testing.AllocsPerRun(window, func() { s.Observe(p) }); allocs != 0 {
		t.Errorf("Observe: %v allocs/op in steady state, want 0", allocs)
	}
	if st := s.Stats(); st.WriteErrors != 0 {
		t.Errorf("write errors: %+v", st)
	}
}

// indexBuildAllocs writes one segment of the given shape and measures a
// build of its index.
func indexBuildAllocs(t *testing.T, records, cookies int) float64 {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, WithMaxSegmentBytes(64<<20))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < records; i++ {
		s.Observe(probe(fmt.Sprintf("client-%04d", i%cookies), i))
	}
	mustClose(t, s)
	f, err := os.Open(segmentPath(dir, 1))
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	defer f.Close() //nolint:errcheck // read-side close
	return testing.AllocsPerRun(5, func() {
		postings, _, err := scanIndex(f, 1, 0, records)
		if err != nil || len(postings) != cookies {
			t.Fatalf("scanIndex = %d cookies, %v; want %d", len(postings), err, cookies)
		}
	})
}

// TestIndexBuildAllocsDoNotScaleWithRecords: the builder allocates its
// scratch and result arrays once each and one string per distinct
// cookie (plus the growth of the cookie map and lists); a segment with
// sixteen times the records over the same cookies costs the same.
func TestIndexBuildAllocsDoNotScaleWithRecords(t *testing.T) {
	const cookies = 64
	small := indexBuildAllocs(t, 2_000, cookies)
	large := indexBuildAllocs(t, 32_000, cookies)
	if large > small+2 {
		t.Errorf("index build: %v allocs for 32 000 records, %v for 2 000 over the same %d cookies", large, small, cookies)
	}
	if limit := float64(40 + cookies); small > limit {
		t.Errorf("index build: %v allocs for %d cookies, want <= %v (a constant + one per cookie)", small, cookies, limit)
	}
}

// TestClientHistoryAllocsPerSegmentHit: a query of segments that are
// indexed allocates the segment snapshot and, per segment that holds
// the client, the prefix slab, the read buffer and the growth of the
// result — not per record.
func TestClientHistoryAllocsPerSegmentHit(t *testing.T) {
	dir := t.TempDir()
	segs := writeProbes(t, dir, 3_000, WithMaxSegmentBytes(32<<10), WithSpillThreshold(4<<10))
	if len(segs) < 3 {
		t.Fatalf("want several segments, got %d", len(segs))
	}
	r := mustReadOnly(t, dir)
	defer mustClose(t, r)
	query := func() {
		if hist, err := r.ClientHistory("crash-client"); err != nil || len(hist) != 3_000 {
			t.Fatalf("ClientHistory = %d probes, %v", len(hist), err)
		}
	}
	query() // builds every index
	allocs := testing.AllocsPerRun(20, query)
	// 3 per segment and 1 for the snapshot; the race detector's build adds
	// a few. 3 000 per-record allocations would be far outside either.
	if limit := float64(4 * (len(segs) + 1)); allocs > limit {
		t.Errorf("ClientHistory over %d indexed segments: %v allocs, want <= %v", len(segs), allocs, limit)
	}
	if opens := r.Stats().SegmentOpens; opens != uint64(len(segs)) {
		t.Errorf("%d segment opens for %d segments", opens, len(segs))
	}
}
