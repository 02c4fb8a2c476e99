package sbprivacy_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"sbprivacy/internal/core"
	"sbprivacy/internal/probestore"
	"sbprivacy/internal/stream"
	"sbprivacy/internal/workload"
)

// TestStreamingMatchesBatchOnSealedStore is the pipeline's correctness
// anchor: over a sealed, seeded campaign store, an unbounded pipeline
// replayed from the store must snapshot exactly like the same pipeline
// that watched the campaign live, and two same-seed windowed runs must
// snapshot identically even past the eviction horizon.
func TestStreamingMatchesBatchOnSealedStore(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const days = 5
	camp, err := workload.Generate(workload.Config{
		Days: days, Clients: 30, Sites: 20, Seed: 11,
	})
	if err != nil {
		t.Fatalf("GenerateCampaign: %v", err)
	}

	urls := camp.IndexExpressions()
	pipeline := func(window int) *stream.Pipeline {
		x := core.NewIndex(urls)
		return stream.NewPipeline(
			stream.NewReidentStage(x, window),
			stream.NewLinkageStage(x, core.LongitudinalConfig{}, window),
		)
	}

	dir := t.TempDir()
	store, err := probestore.Open(dir,
		probestore.WithMaxSegmentBytes(8192)) // several segments
	if err != nil {
		t.Fatalf("OpenProbeStore: %v", err)
	}
	live := pipeline(0)
	if _, err := camp.Run(ctx, store, live); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}

	// replayStream replays the sealed store through a fresh pipeline
	// and returns its snapshot.
	replayStream := func(window int) []stream.StageSnapshot {
		ro, err := probestore.Open(dir, probestore.ReadOnly())
		if err != nil {
			t.Fatalf("reopen read-only: %v", err)
		}
		defer func() {
			if err := ro.Close(); err != nil {
				t.Errorf("close read-only: %v", err)
			}
		}()
		pl := pipeline(window)
		if err := stream.Replay(ro, pl); err != nil {
			t.Fatalf("StreamReplay: %v", err)
		}
		return pl.Snapshot()
	}

	// Unbounded window: the replayed snapshot must deep-equal the live
	// one, reports and accounting.
	full, want := replayStream(0), live.Snapshot()
	if len(full) != 2 {
		t.Fatalf("got %d stage snapshots, want 2", len(full))
	}
	for i := range want {
		if !reflect.DeepEqual(full[i], want[i]) {
			t.Errorf("replayed %s stage diverges from the live one:\ngot:  %+v\n%s\nwant: %+v\n%s",
				want[i].Name, full[i].Stats, full[i].Report, want[i].Stats, want[i].Report)
		}
	}

	// Windowed, past the eviction horizon: two same-seed runs must agree
	// exactly, and the state the window kept must have been bounded.
	const window = 2
	runA := replayStream(window)
	runB := replayStream(window)
	if !reflect.DeepEqual(runA, runB) {
		t.Errorf("same-seed windowed snapshots diverge:\n%+v\nvs\n%+v", runA, runB)
	}
	for _, s := range runA {
		if s.Stats.EvictedRecords == 0 {
			t.Errorf("stage %q evicted nothing over %d days with a %d-day window: %+v",
				s.Name, days, window, s.Stats)
		}
		if s.Stats.ResidentDays > window {
			t.Errorf("stage %q ResidentDays = %d exceeds window %d",
				s.Name, s.Stats.ResidentDays, window)
		}
	}
}

// TestWindowedReplayOfCampaignStoreMatchesLive: a campaign feeds its
// probes in schedule order, and a default-configured store must hand
// them back in that order — so a 7-day windowed replay of the sealed
// store rejects nothing as late and snapshots exactly like a 7-day
// pipeline that watched the campaign live.
func TestWindowedReplayOfCampaignStoreMatchesLive(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const window = 7
	camp, err := workload.Generate(workload.Config{
		Days: 14, Clients: 200, Seed: 42,
	})
	if err != nil {
		t.Fatalf("GenerateCampaign: %v", err)
	}
	urls := camp.IndexExpressions()
	pipeline := func() *stream.Pipeline {
		x := core.NewIndex(urls)
		return stream.NewPipeline(
			stream.NewReidentStage(x, window),
			stream.NewLinkageStage(x, core.LongitudinalConfig{}, window),
		)
	}

	dir := t.TempDir()
	store, err := probestore.Open(dir) // default spill threshold
	if err != nil {
		t.Fatalf("OpenProbeStore: %v", err)
	}
	live := pipeline()
	if _, err := camp.Run(ctx, store, live); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}

	ro, err := probestore.Open(dir, probestore.ReadOnly())
	if err != nil {
		t.Fatalf("reopen read-only: %v", err)
	}
	replayed := pipeline()
	if err := stream.Replay(ro, replayed); err != nil {
		t.Fatalf("StreamReplay: %v", err)
	}
	if err := ro.Close(); err != nil {
		t.Fatalf("close read-only: %v", err)
	}

	got, want := replayed.Snapshot(), live.Snapshot()
	for _, s := range got {
		if s.Stats.LateDropped != 0 {
			t.Errorf("stage %q dropped %d of %d replayed probes as late",
				s.Name, s.Stats.LateDropped, replayed.Observed())
		}
		if s.Stats.EvictedRecords == 0 {
			t.Errorf("stage %q evicted nothing: the window was never exercised", s.Name)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("windowed replay of the store diverges from the live pipeline:\n%+v\nvs\n%+v", got, want)
	}
}
