package stream

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"sbprivacy/internal/core"
	"sbprivacy/internal/hashx"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/urlx"
)

// testIndex builds an index over two small sites, like the core tests.
func testIndex() *core.Index {
	return core.NewIndex([]string{
		"news.example/",
		"news.example/world",
		"news.example/sports",
		"shop.example/",
		"shop.example/cart",
	})
}

// probeFor builds a probe carrying the prefixes a visit to the given
// expression would reveal when both the exact page and the site root
// are blacklisted.
func probeFor(cookie string, at time.Time, expr string) sbserver.Probe {
	prefixes := []hashx.Prefix{hashx.SumPrefix(expr)}
	if root := urlx.HostOf(expr) + "/"; root != expr {
		prefixes = append(prefixes, hashx.SumPrefix(root))
	}
	return sbserver.Probe{Time: at, ClientID: cookie, Prefixes: prefixes}
}

// day returns a timestamp on the n-th UTC day of a fixed window.
func day(n int, hour int) time.Time {
	return time.Date(2016, 3, 7+n, hour, 0, 0, 0, time.UTC)
}

// scrollProbes builds an in-order multi-day feed: a stable cookie and a
// daily cookie churner over the same pages, plus per-day drive-bys, so
// both re-identification and linkage have something to chew on.
func scrollProbes(days int) []sbserver.Probe {
	var out []sbserver.Probe
	for d := 0; d < days; d++ {
		out = append(out,
			probeFor("stable", day(d, 9), "news.example/world"),
			probeFor(fmt.Sprintf("churn.d%d", d), day(d, 12), "news.example/world"),
			probeFor(fmt.Sprintf("churn.d%d", d), day(d, 13), "shop.example/cart"),
			probeFor(fmt.Sprintf("driveby.d%d", d), day(d, 15), "news.example/"),
		)
	}
	return out
}

// newTestPipeline builds the standard two-stage pipeline over the test
// index with the given window.
func newTestPipeline(x *core.Index, window int) (*Pipeline, *ReidentStage, *LinkageStage) {
	re := NewReidentStage(x, window)
	link := NewLinkageStage(x, core.LongitudinalConfig{}, window)
	return NewPipeline(re, link), re, link
}

// TestUnboundedPipelineMatchesBatch is the core sharing contract:
// with no window, the reident stage's one tally per cookie must
// snapshot and account exactly like its day-keyed path under a window
// wider than the feed, and the linkage stage must deep-equal the batch
// Longitudinal fed the same probes — the scoring cores are literally
// shared.
func TestUnboundedPipelineMatchesBatch(t *testing.T) {
	t.Parallel()
	const days = 4
	x := testIndex()
	probes := scrollProbes(days)

	pl, re, link := newTestPipeline(x, 0)
	dayKeyed := NewReidentStage(x, days+1)
	wide := NewPipeline(dayKeyed)
	batchLink := core.NewLongitudinal(x, core.LongitudinalConfig{})
	for _, p := range probes {
		pl.Observe(p)
		wide.Observe(p)
		batchLink.Observe(p)
	}

	if got, want := pl.Snapshot()[0], wide.Snapshot()[0]; !reflect.DeepEqual(got, want) {
		t.Errorf("unbounded reident diverges from the day-keyed path:\ngot:  %+v\n%s\nwant: %+v\n%s",
			got.Stats, got.Report, want.Stats, want.Report)
	}
	if got, want := link.Report(), batchLink.Report(); !reflect.DeepEqual(got, want) {
		t.Errorf("linkage snapshot diverges from batch longitudinal:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if got := pl.Observed(); got != int64(len(probes)) {
		t.Errorf("pipeline observed %d probes, want %d", got, len(probes))
	}
	if st := re.Stats(); st.ResidentDays != days {
		t.Errorf("unbounded reident ResidentDays = %d, want %d", st.ResidentDays, days)
	}
}

// TestWindowedSnapshotMatchesWindowRestrictedBatch: after eviction, a
// windowed stage's snapshot must deep-equal a batch run fed only the
// window's probes — eviction discards state, never skews what remains.
func TestWindowedSnapshotMatchesWindowRestrictedBatch(t *testing.T) {
	t.Parallel()
	const totalDays, window = 6, 3
	x := testIndex()
	probes := scrollProbes(totalDays)

	pl, re, link := newTestPipeline(x, window)
	for _, p := range probes {
		pl.Observe(p)
	}

	// References fed only probes on the resident days [totalDays-window,
	// totalDays): an unbounded reident stage, which keeps one tally per
	// cookie instead of one per (day, cookie), and the batch
	// Longitudinal.
	horizon := day(totalDays-window, 0)
	batchRe := NewReidentStage(x, 0)
	batchLink := core.NewLongitudinal(x, core.LongitudinalConfig{})
	inWindow := 0
	for _, p := range probes {
		if p.Time.Before(horizon) {
			continue
		}
		inWindow++
		batchRe.Observe(p)
		batchLink.Observe(p)
	}
	if inWindow == 0 || inWindow == len(probes) {
		t.Fatalf("bad scenario: %d of %d probes in window", inWindow, len(probes))
	}

	if got, want := re.Report(), batchRe.Report(); !reflect.DeepEqual(got, want) {
		t.Errorf("windowed reident snapshot diverges from window-restricted batch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if got, want := link.Report(), batchLink.Report(); !reflect.DeepEqual(got, want) {
		t.Errorf("windowed linkage snapshot diverges from window-restricted batch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	evicted := int64(len(probes) - inWindow)
	for _, s := range []Stage{re, link} {
		st := s.Stats()
		if st.EvictedRecords != evicted {
			t.Errorf("%s evicted %d records, want %d", s.Name(), st.EvictedRecords, evicted)
		}
		if st.Observed != int64(len(probes)) {
			t.Errorf("%s observed %d, want %d", s.Name(), st.Observed, len(probes))
		}
	}
}

// TestEvictionBoundsResidentState is the memory-bound contract: as days
// scroll past the window, the resident gauges stay flat instead of
// growing with the feed.
func TestEvictionBoundsResidentState(t *testing.T) {
	t.Parallel()
	const totalDays, window = 30, 7
	x := testIndex()
	pl, re, _ := newTestPipeline(x, window)

	var steady []int // ResidentCookies once the window is full
	for d := 0; d < totalDays; d++ {
		for _, p := range scrollProbes(d + 1)[4*d:] { // just day d's probes
			pl.Observe(p)
		}
		st := re.Stats()
		if st.ResidentDays > window {
			t.Fatalf("day %d: ResidentDays = %d exceeds window %d", d, st.ResidentDays, window)
		}
		if d >= window-1 {
			if st.ResidentDays != window {
				t.Fatalf("day %d: ResidentDays = %d, want full window %d", d, st.ResidentDays, window)
			}
			steady = append(steady, st.ResidentCookies)
		}
	}
	// Each day contributes 3 distinct cookies and "stable" spans all of
	// them: steady state is exactly window*2 churn/driveby cookies + 1.
	for i, n := range steady {
		if want := window*2 + 1; n != want {
			t.Fatalf("steady-state day %d: ResidentCookies = %d, want %d (state is not flat)", i, n, want)
		}
	}
	if st := re.Stats(); st.EvictedRecords == 0 {
		t.Fatalf("no records evicted after %d days with a %d-day window: %+v", totalDays, window, st)
	}
}

// TestSameFeedSnapshotsIdentical: two pipelines over the same feed must
// agree exactly — snapshots and accounting — even past the eviction
// horizon. Streaming state depends only on probe virtual time, never on
// wall clock or map iteration order.
func TestSameFeedSnapshotsIdentical(t *testing.T) {
	t.Parallel()
	x := testIndex()
	probes := scrollProbes(12)

	run := func() ([]StageSnapshot, []Stats) {
		pl, re, link := newTestPipeline(x, 4)
		for _, p := range probes {
			pl.Observe(p)
		}
		return pl.Snapshot(), []Stats{re.Stats(), link.Stats()}
	}
	snapA, statsA := run()
	snapB, statsB := run()

	if !reflect.DeepEqual(statsA, statsB) {
		t.Errorf("same-feed stats diverge: %+v vs %+v", statsA, statsB)
	}
	if len(snapA) != len(snapB) {
		t.Fatalf("snapshot lengths diverge: %d vs %d", len(snapA), len(snapB))
	}
	for i := range snapA {
		if !reflect.DeepEqual(snapA[i], snapB[i]) {
			t.Errorf("stage %q same-feed snapshots diverge:\n%s\nvs\n%s",
				snapA[i].Name, snapA[i].Report, snapB[i].Report)
		}
	}
	if statsA[0].EvictedRecords == 0 {
		t.Fatalf("scenario never crossed the eviction horizon: %+v", statsA[0])
	}
}

// TestLateProbesDroppedAndCounted: once the watermark has moved on, a
// probe for an evicted day must not resurrect state — it is dropped and
// charged to LateDropped, and the snapshot is unchanged.
func TestLateProbesDroppedAndCounted(t *testing.T) {
	t.Parallel()
	const window = 3
	x := testIndex()
	pl, re, link := newTestPipeline(x, window)
	for _, p := range scrollProbes(8) {
		pl.Observe(p)
	}
	before := pl.Snapshot()

	// Day 1 fell out of the [5,7] window long ago. The watermark is
	// monotonic, so Advance won't rewind, and Observe must drop it.
	pl.Observe(probeFor("latecomer", day(1, 23), "shop.example/cart"))

	after := pl.Snapshot()
	for i := range before {
		if !reflect.DeepEqual(before[i].Report, after[i].Report) {
			t.Errorf("stage %q report changed after a late probe:\n%s\nvs\n%s",
				before[i].Name, before[i].Report, after[i].Report)
		}
	}
	for _, s := range []Stage{re, link} {
		st := s.Stats()
		if st.LateDropped != 1 {
			t.Errorf("%s LateDropped = %d, want 1", s.Name(), st.LateDropped)
		}
		if st.ResidentDays > window {
			t.Errorf("%s ResidentDays = %d exceeds window %d", s.Name(), st.ResidentDays, window)
		}
	}
}

// TestPipelineSnapshotShape checks the fan-out bookkeeping: stage
// order, names, and typed reports.
func TestPipelineSnapshotShape(t *testing.T) {
	t.Parallel()
	x := testIndex()
	pl, _, _ := newTestPipeline(x, 0)
	pl.Observe(probeFor("c", day(0, 9), "news.example/world"))

	snaps := pl.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("got %d stage snapshots, want 2", len(snaps))
	}
	if snaps[0].Name != "reident" || snaps[1].Name != "linkage" {
		t.Fatalf("stage order = %q, %q; want reident, linkage", snaps[0].Name, snaps[1].Name)
	}
	if _, ok := snaps[0].Report.(*core.Report); !ok {
		t.Errorf("reident snapshot is %T, want *core.Report", snaps[0].Report)
	}
	if _, ok := snaps[1].Report.(*core.LongitudinalReport); !ok {
		t.Errorf("linkage snapshot is %T, want *core.LongitudinalReport", snaps[1].Report)
	}
	for _, s := range snaps {
		if s.Report.String() == "" {
			t.Errorf("stage %q renders an empty report", s.Name)
		}
		if s.Stats.Observed != 1 {
			t.Errorf("stage %q Observed = %d, want 1", s.Name, s.Stats.Observed)
		}
	}
	if got := len(pl.Stages()); got != 2 {
		t.Errorf("Stages() returned %d stages, want 2", got)
	}
}
