// Tracker: the full Section 6.3 attack. The provider wants to know who
// reads the PETS call for papers and who plans to submit. It runs
// Algorithm 1 to choose tracking prefixes, plants them in the malware
// list, watches the full-hash probe log, and correlates temporally close
// queries — all while the clients believe they are only checking URLs
// for safety.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"sbprivacy/internal/core"
	"sbprivacy/internal/sbclient"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/stream"
	"sbprivacy/internal/workload"
)

const list = "goog-malware-shavar"

// visitGap is how far the shared virtual clock moves after each page
// visit, so every probe carries a scripted time and the correlation line
// prints this gap. It stays under the server's 5-minute full-hash cache
// lifetime, so a reader's second page is still answered partly from cache.
const visitGap = 2 * time.Minute

func main() {
	ctx := context.Background()

	// The provider's web index (its crawlers have seen the PETS site).
	index := core.NewIndex([]string{
		"petsymposium.org/",
		"petsymposium.org/2016/",
		"petsymposium.org/2016/cfp.php",
		"petsymposium.org/2016/links.php",
		"petsymposium.org/2016/faqs.php",
		"petsymposium.org/2016/submission/",
	})

	// Algorithm 1: tracking prefixes for the CFP page (a leaf: two
	// prefixes suffice) and for the 2016 directory (non-leaf: colliders
	// are planted too).
	cfpPlan, err := core.BuildTrackingPlan(index, "https://petsymposium.org/2016/cfp.php", 4)
	must(err)
	dirPlan, err := core.BuildTrackingPlan(index, "https://petsymposium.org/2016/", 8)
	must(err)
	for _, plan := range []*core.TrackingPlan{cfpPlan, dirPlan} {
		fmt.Printf("plan for %s: mode=%s prefixes=%v\n", plan.Target, plan.Mode, plan.Prefixes)
	}

	// One virtual clock drives the server and every client, so the run
	// prints the same bytes every time.
	clock := workload.NewClock(time.Date(2016, time.February, 1, 9, 0, 0, 0, time.UTC))

	// Plant the shadow database and subscribe the observers: one
	// pipeline of the tracking and correlation stages.
	server := sbserver.New(sbserver.WithClock(clock.Now))
	must(server.CreateList(list, "malware"))
	tracker := stream.NewTrackStage(cfpPlan, dirPlan)
	must(server.AddExpressions(list, tracker.ShadowExpressions()))
	must(server.AddExpressions(list, []string{"petsymposium.org/2016/submission/"}))
	correlator := stream.NewCorrelationStage(core.NewCorrelationRule(
		"planning-to-submit-a-paper",
		time.Hour,
		"petsymposium.org/2016/cfp.php",
		"petsymposium.org/2016/submission/",
	))
	server.Subscribe(stream.NewPipeline(tracker, correlator))

	// Three users browse. Each has a stable Safe Browsing cookie — the
	// identifier the paper's Section 2.2.3 discusses.
	alice := newClient(ctx, server, clock, "cookie-alice")
	bob := newClient(ctx, server, clock, "cookie-bob")
	carol := newClient(ctx, server, clock, "cookie-carol")

	browse(ctx, clock, alice, "https://petsymposium.org/2016/cfp.php")      // reads the CFP
	browse(ctx, clock, alice, "https://petsymposium.org/2016/submission/")  // ...and submits
	browse(ctx, clock, bob, "https://petsymposium.org/2016/links.php")      // a collider page
	browse(ctx, clock, carol, "http://unrelated.example/recipes/cake.html") // clean browsing

	// The provider's conclusions. Probe delivery is asynchronous; flush
	// the pipeline before reading the observers.
	server.Flush()
	fmt.Println("\ntracking events:")
	for _, e := range tracker.Events() {
		fmt.Printf("    %s visited %s (certainty: %s)\n", e.ClientID, e.URL, e.Certainty)
	}
	fmt.Println("behavioural inferences (temporal correlation):")
	for _, e := range correlator.Events() {
		fmt.Printf("    %s: %s (queries within %v)\n", e.ClientID, e.Rule, e.Last.Sub(e.First))
	}
}

func newClient(ctx context.Context, server *sbserver.Server, clock *workload.Clock, cookie string) *sbclient.Client {
	c := sbclient.New(sbclient.LocalTransport{Server: server},
		[]string{list}, sbclient.WithCookie(cookie), sbclient.WithClock(clock.Now))
	must(c.Update(ctx, true))
	return c
}

// browse checks one URL, prints what it leaked, then moves the clock on
// by visitGap.
func browse(ctx context.Context, clock *workload.Clock, c *sbclient.Client, url string) {
	v, err := c.CheckURL(ctx, url)
	must(err)
	fmt.Printf("%s checks %s: leaked %v\n", c.Cookie(), url, v.SentPrefixes)
	clock.Set(clock.Now().Add(visitGap))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
