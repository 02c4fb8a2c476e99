package sbprivacy_test

import (
	"context"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"sbprivacy/internal/blacklist"
	"sbprivacy/internal/core"
	"sbprivacy/internal/prefixdb"
	"sbprivacy/internal/sbclient"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/stream"
)

// TestIntegrationFullAttackOverHTTP runs the paper's complete scenario on
// a real HTTP stack: a synthetic Yandex-scale universe, Algorithm 1
// tracking plans planted in a served list, several cookie-identified
// clients browsing concurrently, and the provider-side tracker and
// correlator drawing conclusions from the probe log alone.
func TestIntegrationFullAttackOverHTTP(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Provider: synthetic blacklists plus the tracking shadow database.
	universe, err := blacklist.BuildUniverse(blacklist.UniverseConfig{
		Provider: blacklist.Yandex, Scale: 500, Seed: 77,
	})
	if err != nil {
		t.Fatalf("BuildUniverse: %v", err)
	}
	server := universe.Server

	index := core.NewIndex([]string{
		"petsymposium.org/",
		"petsymposium.org/2016/",
		"petsymposium.org/2016/cfp.php",
		"petsymposium.org/2016/links.php",
		"petsymposium.org/2016/submission/",
	})
	plan, err := core.BuildTrackingPlan(index, "https://petsymposium.org/2016/cfp.php", 4)
	if err != nil {
		t.Fatalf("BuildTrackingPlan: %v", err)
	}
	tracker := stream.NewTrackStage(plan)
	const trackingList = "ydx-malware-shavar"
	if err := server.AddExpressions(trackingList, tracker.ShadowExpressions()); err != nil {
		t.Fatalf("AddExpressions: %v", err)
	}
	if err := server.AddExpressions(trackingList,
		[]string{"petsymposium.org/2016/submission/"}); err != nil {
		t.Fatalf("AddExpressions: %v", err)
	}
	correlator := stream.NewCorrelationStage(core.NewCorrelationRule(
		"pets-author", time.Hour,
		"petsymposium.org/2016/cfp.php",
		"petsymposium.org/2016/submission/",
	))
	server.Subscribe(stream.NewPipeline(tracker, correlator))

	ts := httptest.NewServer(sbserver.Handler(server))
	defer ts.Close()

	lists := []string{trackingList, "ydx-porno-hosts-top-shavar"}
	newClient := func(cookie string) *sbclient.Client {
		c := sbclient.New(
			sbclient.HTTPTransport{BaseURL: ts.URL, Client: ts.Client()},
			lists, sbclient.WithCookie(cookie))
		if err := c.Update(ctx, true); err != nil {
			t.Fatalf("Update(%s): %v", cookie, err)
		}
		return c
	}

	// Concurrent browsing: the victim reads the CFP then the submission
	// site; bystanders browse clean and synthetic-blacklisted content.
	victim := newClient("victim")
	bystanders := []*sbclient.Client{newClient("b1"), newClient("b2"), newClient("b3")}

	var wg sync.WaitGroup
	for i, c := range bystanders {
		wg.Add(1)
		go func(i int, c *sbclient.Client) {
			defer wg.Done()
			urls := []string{
				"http://news.example/article",
				"http://shop.example/cart?item=42",
				"http://blog.example/post/2015/06",
			}
			for _, u := range urls {
				if _, err := c.CheckURL(ctx, u); err != nil {
					t.Errorf("bystander %d: %v", i, err)
				}
			}
		}(i, c)
	}
	wg.Wait()

	v, err := victim.CheckURL(ctx, "https://petsymposium.org/2016/cfp.php")
	if err != nil {
		t.Fatalf("victim CheckURL: %v", err)
	}
	if len(v.SentPrefixes) != 2 {
		t.Fatalf("victim leaked %v", v.SentPrefixes)
	}
	if _, err := victim.CheckURL(ctx, "https://petsymposium.org/2016/submission/"); err != nil {
		t.Fatalf("victim CheckURL submission: %v", err)
	}

	// The provider's conclusions. Probe delivery to the tracker and
	// correlator is asynchronous; flush before reading their state.
	server.Flush()
	// Only the victim is tracked: no bystander's event may appear.
	events := tracker.Events()
	if len(events) != 1 || events[0].ClientID != "victim" {
		t.Fatalf("events = %+v, want one for the victim", events)
	}
	if events[0].URL != "petsymposium.org/2016/cfp.php" ||
		events[0].Certainty.String() != "exact" {
		t.Errorf("event = %+v", events[0])
	}
	correlations := correlator.Events()
	if len(correlations) != 1 || correlations[0].ClientID != "victim" ||
		correlations[0].Rule != "pets-author" {
		t.Fatalf("correlations = %+v", correlations)
	}

	// The audit side still works on the same served database.
	report, err := blacklist.AuditOrphans(server, "ydx-phish-shavar")
	if err != nil {
		t.Fatalf("AuditOrphans: %v", err)
	}
	if report.OrphanRate() < 0.9 {
		t.Errorf("ydx-phish orphan rate = %.3f, want ~0.99", report.OrphanRate())
	}
}

// wrappedStore embeds a client prefix store, as instrumenting wrappers
// do.
type wrappedStore struct{ prefixdb.Updatable }

// TestIntegrationStoreKindsAgreeOverHTTP runs the same browsing session
// with the client's store as built and wrapped by a store factory, the
// way an instrumenting harness injects it, and checks identical
// verdicts.
func TestIntegrationStoreKindsAgreeOverHTTP(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	server := sbserver.New()
	const list = "goog-malware-shavar"
	if err := server.CreateList(list, "malware"); err != nil {
		t.Fatalf("CreateList: %v", err)
	}
	if err := server.AddExpressions(list, []string{
		"evil.example/", "bad.example/page.html", "worse.example/x/y/",
	}); err != nil {
		t.Fatalf("AddExpressions: %v", err)
	}
	ts := httptest.NewServer(sbserver.Handler(server))
	defer ts.Close()

	urls := []string{
		"http://evil.example/whatever",
		"http://bad.example/page.html",
		"http://bad.example/other.html",
		"http://worse.example/x/y/z.html",
		"http://clean.example/",
	}
	kinds := []struct {
		name    string
		factory sbclient.StoreFactory
	}{
		{"delta", func() prefixdb.Updatable { return prefixdb.NewDeltaStore(nil) }},
		{"wrapped delta", func() prefixdb.Updatable { return wrappedStore{prefixdb.NewDeltaStore(nil)} }},
	}
	verdicts := make([][]*sbclient.Verdict, len(kinds))
	for k, kind := range kinds {
		client := sbclient.New(
			sbclient.HTTPTransport{BaseURL: ts.URL, Client: ts.Client()},
			[]string{list},
			sbclient.WithStoreFactory(kind.factory),
		)
		if err := client.Update(ctx, true); err != nil {
			t.Fatalf("%s Update: %v", kind.name, err)
		}
		for _, u := range urls {
			v, err := client.CheckURL(ctx, u)
			if err != nil {
				t.Fatalf("%s CheckURL(%s): %v", kind.name, u, err)
			}
			verdicts[k] = append(verdicts[k], v)
		}
	}
	for i, u := range urls {
		a, b := verdicts[0][i], verdicts[1][i]
		if a.Safe != b.Safe || !reflect.DeepEqual(a.SentPrefixes, b.SentPrefixes) ||
			!reflect.DeepEqual(a.Matches, b.Matches) {
			t.Errorf("%s: store kinds disagree:\n%s %+v\n%s %+v",
				u, kinds[0].name, a, kinds[1].name, b)
		}
	}
}
