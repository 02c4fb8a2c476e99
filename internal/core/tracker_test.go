package core_test

import (
	"context"
	"testing"
	"time"

	"sbprivacy/internal/core"
	"sbprivacy/internal/sbclient"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/stream"
)

// petsIndex is the provider's index of the PETS site (the same URLs as
// the in-package tests' index).
func petsIndex() *core.Index {
	return core.NewIndex([]string{
		"petsymposium.org/",
		"petsymposium.org/2016/",
		"petsymposium.org/2016/cfp.php",
		"petsymposium.org/2016/links.php",
		"petsymposium.org/2016/faqs.php",
	})
}

// trackingFixture wires the full attack of Section 6.3: the provider
// builds tracking plans from its index, plants the shadow prefixes in a
// blacklist, subscribes a tracking stage to the probe log, and clients
// browse.
type trackingFixture struct {
	server  *sbserver.Server
	tracker *stream.TrackStage
	index   *core.Index
	clock   *time.Time
}

func newTrackingFixture(t *testing.T, targets []string, delta int) *trackingFixture {
	t.Helper()
	now := time.Unix(50000, 0)
	f := &trackingFixture{index: petsIndex(), clock: &now}
	f.server = sbserver.New(sbserver.WithClock(func() time.Time { return *f.clock }))
	if err := f.server.CreateList("goog-malware-shavar", "malware"); err != nil {
		t.Fatalf("CreateList: %v", err)
	}

	var plans []*core.TrackingPlan
	for _, target := range targets {
		plan, err := core.BuildTrackingPlan(f.index, target, delta)
		if err != nil {
			t.Fatalf("BuildTrackingPlan(%q): %v", target, err)
		}
		plans = append(plans, plan)
	}
	f.tracker = stream.NewTrackStage(plans...)

	// Plant the shadow database: full expressions so the protocol behaves
	// exactly as for organic blacklist entries.
	if err := f.server.AddExpressions("goog-malware-shavar", f.tracker.ShadowExpressions()); err != nil {
		t.Fatalf("AddExpressions: %v", err)
	}
	f.server.Subscribe(stream.NewPipeline(f.tracker))
	return f
}

func (f *trackingFixture) newClient(t *testing.T, cookie string) *sbclient.Client {
	t.Helper()
	cl := sbclient.New(sbclient.LocalTransport{Server: f.server},
		[]string{"goog-malware-shavar"},
		sbclient.WithCookie(cookie),
		sbclient.WithClock(func() time.Time { return *f.clock }))
	if err := cl.Update(context.Background(), true); err != nil {
		t.Fatalf("Update: %v", err)
	}
	return cl
}

// TestTrackerEndToEnd: a client visiting the tracked CFP page is
// identified by cookie with exact certainty; a client browsing elsewhere
// is not observed at all.
func TestTrackerEndToEnd(t *testing.T) {
	t.Parallel()
	f := newTrackingFixture(t, []string{"https://petsymposium.org/2016/cfp.php"}, 0)

	victim := f.newClient(t, "victim-cookie")
	bystander := f.newClient(t, "bystander-cookie")

	ctx := context.Background()
	if _, err := bystander.CheckURL(ctx, "http://news.example/article"); err != nil {
		t.Fatalf("CheckURL: %v", err)
	}
	v, err := victim.CheckURL(ctx, "https://petsymposium.org/2016/cfp.php")
	if err != nil {
		t.Fatalf("CheckURL: %v", err)
	}
	if len(v.SentPrefixes) != 2 {
		t.Fatalf("victim sent %v", v.SentPrefixes)
	}

	f.server.Flush() // probe delivery to sinks is async
	events := f.tracker.Events()
	if len(events) != 1 {
		t.Fatalf("events = %+v", events)
	}
	ev := events[0]
	if ev.ClientID != "victim-cookie" {
		t.Errorf("event client = %q", ev.ClientID)
	}
	if ev.Certainty != core.CertaintyExact || ev.URL != "petsymposium.org/2016/cfp.php" {
		t.Errorf("event = %+v", ev)
	}
	if len(eventsFor(events, "bystander-cookie")) != 0 {
		t.Error("bystander was tracked")
	}
	if len(eventsFor(events, "victim-cookie")) != 1 {
		t.Error("victim events missing")
	}
}

// TestTrackerDomainVisitInsufficient: visiting only the domain root sends
// one prefix — below the two-prefix threshold — so no event fires.
func TestTrackerDomainVisitInsufficient(t *testing.T) {
	t.Parallel()
	f := newTrackingFixture(t, []string{"https://petsymposium.org/2016/cfp.php"}, 0)
	client := f.newClient(t, "c1")
	if _, err := client.CheckURL(context.Background(), "https://petsymposium.org/"); err != nil {
		t.Fatalf("CheckURL: %v", err)
	}
	f.server.Flush()
	if events := f.tracker.Events(); len(events) != 0 {
		t.Errorf("domain-root visit fired events: %+v", events)
	}
}

// TestTrackerColliderCertainty: with a non-leaf target, visiting a
// planted Type I collider produces a collider-certainty event naming the
// collider.
func TestTrackerColliderCertainty(t *testing.T) {
	t.Parallel()
	f := newTrackingFixture(t, []string{"https://petsymposium.org/2016/"}, 8)
	client := f.newClient(t, "c2")
	if _, err := client.CheckURL(context.Background(), "https://petsymposium.org/2016/links.php"); err != nil {
		t.Fatalf("CheckURL: %v", err)
	}
	f.server.Flush()
	events := f.tracker.Events()
	if len(events) != 1 {
		t.Fatalf("events = %+v", events)
	}
	if events[0].Certainty != core.CertaintyCollider || events[0].URL != "petsymposium.org/2016/links.php" {
		t.Errorf("event = %+v", events[0])
	}
}

// TestTrackerDomainOnlyMode: when delta forces domain-only tracking, a
// visit to the target still yields a domain-certainty event.
func TestTrackerDomainOnlyMode(t *testing.T) {
	t.Parallel()
	f := newTrackingFixture(t, []string{"https://petsymposium.org/2016/"}, 2)
	client := f.newClient(t, "c3")
	if _, err := client.CheckURL(context.Background(), "https://petsymposium.org/2016/"); err != nil {
		t.Fatalf("CheckURL: %v", err)
	}
	f.server.Flush()
	events := f.tracker.Events()
	if len(events) != 1 {
		t.Fatalf("events = %+v", events)
	}
	if events[0].Certainty != core.CertaintyDomain || events[0].URL != "petsymposium.org/" {
		t.Errorf("event = %+v", events[0])
	}
}

// TestTrackerCacheSuppressesRepeats: the full-hash cache absorbs repeat
// visits, so the tracker sees each episode once per cache lifetime — a
// real-world limit of the attack worth documenting in code.
func TestTrackerCacheSuppressesRepeats(t *testing.T) {
	t.Parallel()
	f := newTrackingFixture(t, []string{"https://petsymposium.org/2016/cfp.php"}, 0)
	client := f.newClient(t, "c4")
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := client.CheckURL(ctx, "https://petsymposium.org/2016/cfp.php"); err != nil {
			t.Fatalf("CheckURL: %v", err)
		}
	}
	f.server.Flush()
	if events := f.tracker.Events(); len(events) != 1 {
		t.Errorf("events = %d, want 1 (cache suppresses repeats)", len(events))
	}
	// After cache expiry the next visit is observed again.
	*f.clock = f.clock.Add(time.Duration(sbserver.DefaultCacheSeconds+1) * time.Second)
	if _, err := client.CheckURL(ctx, "https://petsymposium.org/2016/cfp.php"); err != nil {
		t.Fatalf("CheckURL: %v", err)
	}
	f.server.Flush()
	if events := f.tracker.Events(); len(events) != 2 {
		t.Errorf("events = %d, want 2 after expiry", len(events))
	}
}

// TestTrackerAddPlanAndShadow: plans sharing a decomposition plant it
// once in the shadow database.
func TestTrackerAddPlanAndShadow(t *testing.T) {
	t.Parallel()
	x := petsIndex()
	planA, err := core.BuildTrackingPlan(x, "https://petsymposium.org/2016/cfp.php", 0)
	if err != nil {
		t.Fatalf("BuildTrackingPlan: %v", err)
	}
	planB, err := core.BuildTrackingPlan(x, "https://petsymposium.org/2016/links.php", 0)
	if err != nil {
		t.Fatalf("BuildTrackingPlan: %v", err)
	}
	tr := stream.NewTrackStage(planA, planB)
	if got := tr.ShadowExpressions(); len(got) != 3 { // root, cfp, links
		t.Errorf("shadow expressions = %v", got)
	}
}

func TestCertaintyStrings(t *testing.T) {
	t.Parallel()
	for c, want := range map[core.Certainty]string{
		core.CertaintyDomain:   "domain",
		core.CertaintyCollider: "collider",
		core.CertaintyExact:    "exact",
		core.Certainty(9):      "unknown",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

// eventsFor filters events down to one client's.
func eventsFor(events []core.Event, clientID string) []core.Event {
	var out []core.Event
	for _, e := range events {
		if e.ClientID == clientID {
			out = append(out, e)
		}
	}
	return out
}
