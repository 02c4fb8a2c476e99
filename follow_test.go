package sbprivacy_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sbprivacy/internal/core"
	"sbprivacy/internal/probestore"
	"sbprivacy/internal/sbclient"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/stream"
)

// countingSink counts probe deliveries so the test knows how many
// probes the followed stream must eventually carry.
type countingSink struct{ n atomic.Int64 }

func (c *countingSink) Observe(sbserver.Probe) { c.n.Add(1) }

// TestIntegrationFollowMatchesLivePath is the follow-mode acceptance
// scenario: a tail attached to the store directory BEFORE any traffic
// exists receives every probe the serving process appends afterwards,
// and a re-identification stage fed from that followed stream produces
// a report deep-equal to the live stage's — the live wiretap, reconstructed
// from nothing but the growing files.
func TestIntegrationFollowMatchesLivePath(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

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

	live := stream.NewReidentStage(index, 0)
	server.Subscribe(stream.NewPipeline(live))
	counter := &countingSink{}
	server.Subscribe(counter)

	dir := t.TempDir()
	store, err := probestore.Open(dir,
		probestore.WithMaxSegmentBytes(256), // several rotations
		probestore.WithSpillThreshold(1))
	if err != nil {
		t.Fatalf("OpenProbeStore: %v", err)
	}
	server.Subscribe(store)

	// The tail starts NOW, against an empty directory: every probe it
	// ever delivers was appended after the tail began.
	tailStore, err := probestore.Open(dir, probestore.ReadOnly())
	if err != nil {
		t.Fatalf("OpenProbeStore read-only: %v", err)
	}
	followed := stream.NewReidentStage(index, 0)
	followedPipeline := stream.NewPipeline(followed)
	followCtx, stopFollow := context.WithCancel(ctx)
	defer stopFollow()
	followErr := make(chan error, 1)
	go func() {
		followErr <- stream.Follow(followCtx, tailStore, followedPipeline,
			probestore.WithFollowPoll(time.Millisecond))
	}()

	ts := httptest.NewServer(sbserver.Handler(server))
	defer ts.Close()
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

	// Drain the pipeline into the sinks, then persist the buffered tail
	// so the follower can reach it (records invisible to a tail reader
	// until they hit disk).
	if err := server.Close(); err != nil {
		t.Fatalf("server.Close: %v", err)
	}
	want := counter.n.Load()
	if want == 0 {
		t.Fatal("workload produced no probes")
	}
	if err := store.Flush(); err != nil {
		t.Fatalf("store.Flush: %v", err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for followedPipeline.Observed() < want && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := followedPipeline.Observed(); got != want {
		t.Fatalf("followed %d probes, want %d", got, want)
	}
	stopFollow()
	if err := <-followErr; err != nil {
		t.Fatalf("Follow: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}

	liveReport := live.Report()
	if len(liveReport.Clients) != 4 || len(liveReport.Clients[0].ExactURLs) == 0 {
		t.Fatalf("live path re-identified nothing: %+v", liveReport)
	}
	if got := followed.Report(); !reflect.DeepEqual(got, liveReport) {
		t.Errorf("followed report differs from live report:\n--- followed ---\n%s--- live ---\n%s", got, liveReport)
	}
}
