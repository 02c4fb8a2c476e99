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

// TestIntegrationCampaignMatchesOfflineReplay is the multi-day
// acceptance scenario: a synthetic campaign drives the full
// client/server stack with a live unbounded linkage stage subscribed
// while a probe store persists the stream; replaying the store offline
// into a fresh stage must reproduce the live day-over-day report
// exactly — the stored log supports every longitudinal conclusion the
// live wiretap does, days of browsing included.
func TestIntegrationCampaignMatchesOfflineReplay(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	camp, err := workload.Generate(workload.Config{
		Days: 3, Clients: 40, Sites: 24, Seed: 7,
	})
	if err != nil {
		t.Fatalf("GenerateCampaign: %v", err)
	}

	dir := t.TempDir()
	store, err := probestore.Open(dir,
		probestore.WithMaxSegmentBytes(8192)) // several segments
	if err != nil {
		t.Fatalf("OpenProbeStore: %v", err)
	}
	linkage := func() *stream.LinkageStage {
		return stream.NewLinkageStage(
			core.NewIndex(camp.IndexExpressions()), core.LongitudinalConfig{}, 0)
	}
	live := linkage()

	stats, err := camp.Run(ctx, store, stream.NewPipeline(live))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}
	if stats.Probes == 0 {
		t.Fatalf("campaign leaked no probes: %+v", stats)
	}

	liveReport := live.Report()
	if len(liveReport.Days) != 3 {
		t.Fatalf("live report covers %d days, want 3", len(liveReport.Days))
	}

	// Offline path: reopen the store read-only — a later process — and
	// replay into a fresh stage over a freshly built index.
	ro, err := probestore.Open(dir, probestore.ReadOnly())
	if err != nil {
		t.Fatalf("reopen read-only: %v", err)
	}
	offline := linkage()
	if err := stream.Replay(ro, stream.NewPipeline(offline)); err != nil {
		t.Fatalf("StreamReplay: %v", err)
	}
	offlineReport := offline.Report()
	if !reflect.DeepEqual(liveReport, offlineReport) {
		t.Fatalf("offline replay diverges from the live campaign report:\nlive    %+v\noffline %+v",
			liveReport, offlineReport)
	}

	// Ground truth: the campaign knows which cookies belonged to the
	// same churning user, so the linkage can be scored. The thresholds
	// favour precision (links are claims), so demand ≥ 4/5 of links
	// correct and at least a fifth of the true rotations caught; the
	// run is deterministic, so these are stable properties of the seed,
	// stated loosely enough to survive generator tuning.
	if len(liveReport.Links) < 3 {
		t.Fatalf("only %d day-over-day links found; the churners went unnoticed", len(liveReport.Links))
	}
	correct := 0
	for _, lk := range liveReport.Links {
		if camp.SameUser(lk.From, lk.To) {
			correct++
		}
	}
	if 5*correct < 4*len(liveReport.Links) {
		t.Errorf("linkage precision %d/%d below 4/5", correct, len(liveReport.Links))
	}
	if trans := camp.ChurnTransitions(); 5*correct < trans {
		t.Errorf("linkage recall %d/%d below 1/5", correct, trans)
	}

	// And the per-day report must show population churn arithmetic
	// consistent with itself: a cookie counted new was never active
	// before, day indices are contiguous.
	seen := make(map[string]bool)
	for i, d := range liveReport.Days {
		if d.Day != i {
			t.Errorf("day %d labelled #%d", i, d.Day)
		}
		for _, c := range d.Cookies {
			if c.New == seen[c.Cookie] {
				t.Errorf("day %d: cookie %s New=%v but previously seen=%v", i, c.Cookie, c.New, seen[c.Cookie])
			}
			seen[c.Cookie] = true
		}
	}
}
