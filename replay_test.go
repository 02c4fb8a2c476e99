package sbprivacy_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
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

// TestIntegrationReplayFeedsTracker checks the Section 6.3 consumers:
// one pipeline of the Algorithm 1 tracking stage and the temporal-
// correlation stage draws the same conclusions subscribed live, replayed
// from the sealed store, and fed by a Follow tail of it. A victim reads
// the CFP, a visitor reads a Type I collider page, and an author reads
// the CFP then the submission site, all concurrently, so the events
// interleave across cookies in record order.
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
	cfpPlan, err := core.BuildTrackingPlan(index, "https://petsymposium.org/2016/cfp.php", 4)
	if err != nil {
		t.Fatalf("BuildTrackingPlan: %v", err)
	}
	dirPlan, err := core.BuildTrackingPlan(index, "https://petsymposium.org/2016/", 8)
	if err != nil {
		t.Fatalf("BuildTrackingPlan: %v", err)
	}
	const submission = "petsymposium.org/2016/submission/"
	pipeline := func() (*stream.Pipeline, *stream.TrackStage, *stream.CorrelationStage) {
		track := stream.NewTrackStage(cfpPlan, dirPlan)
		corr := stream.NewCorrelationStage(core.NewCorrelationRule(
			"pets-author", time.Hour, "petsymposium.org/2016/cfp.php", submission))
		return stream.NewPipeline(track, corr), track, corr
	}

	server := sbserver.New()
	const list = "goog-malware-shavar"
	if err := server.CreateList(list, "malware"); err != nil {
		t.Fatalf("CreateList: %v", err)
	}
	live, liveTrack, liveCorr := pipeline()
	if err := server.AddExpressions(list, append(liveTrack.ShadowExpressions(), submission)); err != nil {
		t.Fatalf("AddExpressions: %v", err)
	}
	server.Subscribe(live)
	dir := t.TempDir()
	store, err := probestore.Open(dir)
	if err != nil {
		t.Fatalf("OpenProbeStore: %v", err)
	}
	server.Subscribe(store)

	var wg sync.WaitGroup
	for cookie, urls := range map[string][]string{
		"victim":  {"https://petsymposium.org/2016/cfp.php"},
		"visitor": {"https://petsymposium.org/2016/links.php"},
		"author":  {"https://petsymposium.org/2016/cfp.php", "https://" + submission},
	} {
		wg.Add(1)
		go func(cookie string, urls []string) {
			defer wg.Done()
			c := sbclient.New(sbclient.LocalTransport{Server: server},
				[]string{list}, sbclient.WithCookie(cookie))
			if err := c.Update(ctx, true); err != nil {
				t.Errorf("Update(%s): %v", cookie, err)
				return
			}
			for _, u := range urls {
				if _, err := c.CheckURL(ctx, u); err != nil {
					t.Errorf("CheckURL(%s): %v", u, err)
				}
			}
		}(cookie, urls)
	}
	wg.Wait()
	if err := server.Close(); err != nil {
		t.Fatalf("server.Close: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}

	// Sanity: the live path saw each kind of evidence (the strongest per
	// client).
	certainty := make(map[string]core.Certainty)
	for _, e := range liveTrack.Events() {
		if e.Certainty > certainty[e.ClientID] {
			certainty[e.ClientID] = e.Certainty
		}
	}
	if !reflect.DeepEqual(certainty, map[string]core.Certainty{
		"victim": core.CertaintyExact, "visitor": core.CertaintyCollider, "author": core.CertaintyExact,
	}) {
		t.Errorf("live tracking certainty per client = %v", certainty)
	}
	if evs := liveCorr.Events(); len(evs) != 1 || evs[0].ClientID != "author" {
		t.Errorf("live correlation events = %+v, want one for the author", evs)
	}

	replayStore, err := probestore.Open(dir, probestore.ReadOnly())
	if err != nil {
		t.Fatalf("OpenProbeStore read-only: %v", err)
	}
	replayed, _, _ := pipeline()
	if err := stream.Replay(replayStore, replayed); err != nil {
		t.Fatalf("Replay: %v", err)
	}

	followed, _, _ := pipeline()
	followCtx, stopFollow := context.WithCancel(ctx)
	defer stopFollow()
	followErr := make(chan error, 1)
	go func() {
		followErr <- stream.Follow(followCtx, replayStore, followed,
			probestore.WithFollowPoll(time.Millisecond))
	}()
	for followed.Observed() < live.Observed() && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	stopFollow()
	if err := <-followErr; err != nil {
		t.Fatalf("Follow: %v", err)
	}

	// The disk round trip preserves wall time but drops the monotonic
	// reading, so compare the rendered snapshots, not the structs.
	want := renderStages(live.Snapshot())
	if got := renderStages(replayed.Snapshot()); got != want {
		t.Errorf("replayed snapshot differs from live:\n--- replayed ---\n%s--- live ---\n%s", got, want)
	}
	if got := renderStages(followed.Snapshot()); got != want {
		t.Errorf("followed snapshot differs from live:\n--- followed ---\n%s--- live ---\n%s", got, want)
	}
}

// renderStages renders a pipeline snapshot as titled sections, each
// stage's accounting and report text, the way sbanalyze writes one.
func renderStages(snaps []stream.StageSnapshot) string {
	var b strings.Builder
	for _, s := range snaps {
		fmt.Fprintf(&b, "== %s (%+v) ==\n%s", s.Name, s.Stats, s.Report)
	}
	return b.String()
}
