package stream

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sbprivacy/internal/core"
	"sbprivacy/internal/hashx"
	"sbprivacy/internal/sbserver"
)

func petsIndex() *core.Index {
	return core.NewIndex([]string{
		"petsymposium.org/",
		"petsymposium.org/2016/",
		"petsymposium.org/2016/cfp.php",
		"petsymposium.org/2016/links.php",
		"other.example/page",
	})
}

func TestReidentStageClassification(t *testing.T) {
	t.Parallel()
	s := NewReidentStage(petsIndex(), 0)
	now := time.Unix(1457_000_000, 0)

	// Exact: cfp.php's two deepest decomposition prefixes are unique.
	s.Observe(sbserver.Probe{Time: now, ClientID: "victim", Prefixes: []hashx.Prefix{
		hashx.SumPrefix("petsymposium.org/2016/cfp.php"),
		hashx.SumPrefix("petsymposium.org/2016/"),
	}})
	// Domain-level: the site root prefix alone is shared by every
	// petsymposium URL, so candidates agree only on the domain.
	s.Observe(sbserver.Probe{Time: now, ClientID: "victim", Prefixes: []hashx.Prefix{
		hashx.SumPrefix("petsymposium.org/"),
	}})
	// Unknown: a prefix no indexed URL produces.
	s.Observe(sbserver.Probe{Time: now, ClientID: "stranger", Prefixes: []hashx.Prefix{
		hashx.SumPrefix("unindexed.example/"),
	}})

	rep := s.Report()
	if len(rep.Clients) != 2 {
		t.Fatalf("clients = %+v", rep.Clients)
	}
	stranger, victim := rep.Clients[0], rep.Clients[1]
	if victim.ClientID != "victim" || victim.Probes != 2 || victim.Prefixes != 3 {
		t.Errorf("victim = %+v", victim)
	}
	if len(victim.ExactURLs) != 1 ||
		victim.ExactURLs[0] != (core.NameCount{Name: "petsymposium.org/2016/cfp.php", Count: 1}) {
		t.Errorf("victim exact = %+v", victim.ExactURLs)
	}
	if len(victim.Domains) != 1 || victim.Domains[0].Name != "petsymposium.org" {
		t.Errorf("victim domains = %+v", victim.Domains)
	}
	if stranger.ClientID != "stranger" || stranger.Unknown != 1 {
		t.Errorf("stranger = %+v", stranger)
	}
}

// TestReidentStageOrderIndependence is the property the probe-store
// replay path depends on: unbounded, the report is a pure function of
// the probe multiset, not of delivery order.
func TestReidentStageOrderIndependence(t *testing.T) {
	t.Parallel()
	x := petsIndex()
	var probes []sbserver.Probe
	now := time.Unix(1457_000_000, 0)
	for i := 0; i < 50; i++ {
		client := []string{"a", "b", "c"}[i%3]
		expr := []string{
			"petsymposium.org/2016/cfp.php",
			"petsymposium.org/",
			"other.example/page",
		}[i%3]
		probes = append(probes, sbserver.Probe{
			Time: now.Add(time.Duration(i) * time.Hour), ClientID: client,
			Prefixes: []hashx.Prefix{hashx.SumPrefix(expr)},
		})
	}
	ordered := NewPipeline(NewReidentStage(x, 0))
	for _, p := range probes {
		ordered.Observe(p)
	}
	shuffled := NewPipeline(NewReidentStage(x, 0))
	rng := rand.New(rand.NewSource(42))
	for _, i := range rng.Perm(len(probes)) {
		shuffled.Observe(probes[i])
	}
	if got, want := shuffled.Snapshot(), ordered.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("snapshots differ:\n%+v\nvs\n%+v", got, want)
	}
}

// TestUnboundedReidentKeepsOneTallyPerCookie: a stage that never
// evicts keeps one tally per cookie however many days the feed spans,
// and accounts for the days all the same.
func TestUnboundedReidentKeepsOneTallyPerCookie(t *testing.T) {
	t.Parallel()
	const days, cookies = 28, 5
	s := NewReidentStage(testIndex(), 0)
	pl := NewPipeline(s)
	for d := 0; d < days; d++ {
		for c := 0; c < cookies; c++ {
			pl.Observe(probeFor(fmt.Sprintf("c%d", c), day(d, 9), "news.example/world"))
		}
	}
	tallies := 0
	for _, m := range s.w.days {
		tallies += len(m)
	}
	if tallies != cookies {
		t.Errorf("stage holds %d tallies, want one per cookie (%d)", tallies, cookies)
	}
	want := Stats{Observed: days * cookies, ResidentCookies: cookies, ResidentDays: days}
	if got := s.Stats(); got != want {
		t.Errorf("Stats = %+v, want %+v", got, want)
	}
}
