package sbprivacy_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"sbprivacy/internal/core"
	"sbprivacy/internal/probestore"
	"sbprivacy/internal/sbclient"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/stream"
)

// TestIntegrationReplayMatchesLivePath is the probe-store acceptance
// scenario: a server persists its probe stream to disk while a live
// re-identification stage watches the same stream; replaying the stored log offline
// must reproduce the live re-identification report exactly. This is the
// paper's retention threat made concrete — the stored log is as
// dangerous as the wiretap.
func TestIntegrationReplayMatchesLivePath(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Provider: a served list containing the PETS site, a decoy site,
	// and a web index covering both.
	server := sbserver.New()
	const list = "goog-malware-shavar"
	if err := server.CreateList(list, "malware"); err != nil {
		t.Fatalf("CreateList: %v", err)
	}
	indexed := []string{
		"petsymposium.org/",
		"petsymposium.org/2016/",
		"petsymposium.org/2016/cfp.php",
		"petsymposium.org/2016/links.php",
		"decoy.example/",
		"decoy.example/landing",
	}
	if err := server.AddExpressions(list, indexed); err != nil {
		t.Fatalf("AddExpressions: %v", err)
	}
	index := core.NewIndex(indexed)

	// Live path: an unbounded re-identification stage subscribed to the
	// server.
	live := stream.NewReidentStage(index, 0)
	server.Subscribe(stream.NewPipeline(live))

	// Durable path: a probe store subscribed to the same server, with
	// small segments so the workload spans several files.
	dir := t.TempDir()
	store, err := probestore.Open(dir,
		probestore.WithMaxSegmentBytes(256),
		probestore.WithSpillThreshold(1))
	if err != nil {
		t.Fatalf("OpenProbeStore: %v", err)
	}
	server.Subscribe(store)

	ts := httptest.NewServer(sbserver.Handler(server))
	defer ts.Close()

	// Identical workload for both paths: several cookie-identified
	// clients browse concurrently.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := sbclient.New(
				sbclient.HTTPTransport{BaseURL: ts.URL, Client: ts.Client()},
				[]string{list}, sbclient.WithCookie(fmt.Sprintf("client-%d", i)))
			if err := c.Update(ctx, true); err != nil {
				t.Errorf("Update: %v", err)
				return
			}
			urls := []string{
				"https://petsymposium.org/2016/cfp.php",
				"https://petsymposium.org/2016/links.php",
				"http://decoy.example/landing",
				"http://clean.example/nothing",
			}
			for r := 0; r <= i; r++ { // uneven per-client volumes
				for _, u := range urls {
					if _, err := c.CheckURL(ctx, u); err != nil {
						t.Errorf("CheckURL(%s): %v", u, err)
					}
				}
			}
		}(i)
	}
	wg.Wait()

	// Barrier order matters: drain the pipeline into the sinks, then
	// persist the store's buffered tail.
	if err := server.Close(); err != nil {
		t.Fatalf("server.Close: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}
	liveReport := live.Report()
	if len(liveReport.Clients) != 4 {
		t.Fatalf("live report covers %d clients, want 4: %+v", len(liveReport.Clients), liveReport)
	}
	// Sanity: the live path did re-identify the victim URLs exactly.
	if len(liveReport.Clients[0].ExactURLs) == 0 {
		t.Fatalf("live path re-identified nothing: %+v", liveReport.Clients[0])
	}

	// Offline path: reopen the log read-only — a different process,
	// later in time — and replay into a fresh stage.
	replayStore, err := probestore.Open(dir, probestore.ReadOnly())
	if err != nil {
		t.Fatalf("OpenProbeStore read-only: %v", err)
	}
	if segs := replayStore.Segments(); len(segs) < 2 {
		t.Errorf("workload fit in %d segments; want rotation to matter: %+v", len(segs), segs)
	}
	replayed := stream.NewReidentStage(index, 0)
	if err := stream.Replay(replayStore, stream.NewPipeline(replayed)); err != nil {
		t.Fatalf("StreamReplay: %v", err)
	}

	if got, want := replayed.Report(), liveReport; !reflect.DeepEqual(got, want) {
		t.Errorf("replayed report differs from live report:\n--- replayed ---\n%s--- live ---\n%s", got, want)
	}
}

// TestIntegrationReplayFeedsTracker checks the second consumer: the
// Algorithm 1 tracker draws the same per-client conclusions from a
// stored log as it does live.
func TestIntegrationReplayFeedsTracker(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	index := core.NewIndex([]string{
		"petsymposium.org/",
		"petsymposium.org/2016/",
		"petsymposium.org/2016/cfp.php",
		"petsymposium.org/2016/links.php",
	})
	plan, err := core.BuildTrackingPlan(index, "https://petsymposium.org/2016/cfp.php", 4)
	if err != nil {
		t.Fatalf("BuildTrackingPlan: %v", err)
	}

	server := sbserver.New()
	const list = "goog-malware-shavar"
	if err := server.CreateList(list, "malware"); err != nil {
		t.Fatalf("CreateList: %v", err)
	}
	liveTracker := core.NewTracker(plan)
	if err := server.AddExpressions(list, liveTracker.ShadowExpressions()); err != nil {
		t.Fatalf("AddExpressions: %v", err)
	}
	server.Subscribe(liveTracker)
	dir := t.TempDir()
	store, err := probestore.Open(dir)
	if err != nil {
		t.Fatalf("OpenProbeStore: %v", err)
	}
	server.Subscribe(store)

	victim := sbclient.New(sbclient.LocalTransport{Server: server},
		[]string{list}, sbclient.WithCookie("victim"))
	if err := victim.Update(ctx, true); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if _, err := victim.CheckURL(ctx, "https://petsymposium.org/2016/cfp.php"); err != nil {
		t.Fatalf("CheckURL: %v", err)
	}
	if err := server.Close(); err != nil {
		t.Fatalf("server.Close: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}

	replayTracker := core.NewTracker(plan)
	replayStore, err := probestore.Open(dir, probestore.ReadOnly())
	if err != nil {
		t.Fatalf("OpenProbeStore read-only: %v", err)
	}
	if err := replayStore.Replay(func(p sbserver.Probe) error {
		replayTracker.Observe(p)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}

	liveEvents := liveTracker.EventsFor("victim")
	replayEvents := replayTracker.EventsFor("victim")
	if len(liveEvents) != 1 || len(replayEvents) != 1 {
		t.Fatalf("events: live=%+v replay=%+v", liveEvents, replayEvents)
	}
	le, re := liveEvents[0], replayEvents[0]
	// The disk round trip preserves wall time but drops the monotonic
	// reading, so compare fields, with time.Equal for the timestamp.
	if !le.Time.Equal(re.Time) || le.URL != re.URL || le.Certainty != re.Certainty ||
		!reflect.DeepEqual(le.MatchedPrefixes, re.MatchedPrefixes) {
		t.Errorf("replayed event %+v differs from live event %+v", re, le)
	}
}
