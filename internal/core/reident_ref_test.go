package core

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/urlx"
	"sbprivacy/internal/workload"
)

// referenceReidentify is Reidentify as it stood before the index kept
// each URL's registrable domain: filter the rarest prefix's URLs, then
// parse every candidate's host again to find the common domain. It is
// the definition the fast path is held to.
func (x *Index) referenceReidentify(prefixes []hashx.Prefix) Reidentification {
	r := Reidentification{Prefixes: append([]hashx.Prefix(nil), prefixes...)}
	if len(prefixes) == 0 {
		return r
	}
	seed := x.urlsByPrefix[prefixes[0]]
	for _, p := range prefixes[1:] {
		if cand := x.urlsByPrefix[p]; len(cand) < len(seed) {
			seed = cand
		}
	}
	for _, id := range seed {
		all := true
		for _, p := range prefixes {
			if _, ok := x.prefixSet[id][p]; !ok {
				all = false
				break
			}
		}
		if all {
			r.Candidates = append(r.Candidates, x.urls[id])
		}
	}
	r.Exact = len(r.Candidates) == 1
	r.CommonDomain = commonDomain(r.Candidates)
	return r
}

func commonDomain(urls []string) string {
	if len(urls) == 0 {
		return ""
	}
	dom := urlx.RegisteredDomain(urlx.HostOf(urls[0]))
	for _, u := range urls[1:] {
		if urlx.RegisteredDomain(urlx.HostOf(u)) != dom {
			return ""
		}
	}
	return dom
}

// referenceDayObserve is DayTally.Observe as it stood when an exact
// hit's domain was parsed out of the URL instead of read from
// CommonDomain.
func referenceDayObserve(t *DayTally, r Reidentification) {
	t.probes++
	switch {
	case r.Exact:
		u := r.Candidates[0]
		t.urls.add(u, 1)
		t.domains.add(urlx.RegisteredDomain(urlx.HostOf(u)), 1)
	case r.CommonDomain != "":
		t.domains.add(r.CommonDomain, 1)
	default:
		t.unresolved++
	}
}

// probeCapture keeps a campaign run's probes in order.
type probeCapture struct {
	mu     sync.Mutex
	probes []sbserver.Probe
}

func (c *probeCapture) Observe(p sbserver.Probe) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.probes = append(c.probes, p)
}

// TestReidentifyMatchesReference holds Reidentify to the reference
// over everything a campaign's clients really send and over prefix
// sets no client would: same candidates in the same order
// (ClientTally reads Candidates[0]), same Exact, same CommonDomain —
// and tallies fed one or the other end deep-equal.
func TestReidentifyMatchesReference(t *testing.T) {
	t.Parallel()
	camp, err := workload.Generate(workload.Config{Days: 7, Clients: 200, Seed: 3})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var feed probeCapture
	if _, err := camp.Run(context.Background(), &feed); err != nil {
		t.Fatalf("Run: %v", err)
	}
	x := NewIndex(camp.IndexExpressions())

	type dayCookie struct {
		day    int64
		cookie string
	}
	clients, refClients := map[string]*ClientTally{}, map[string]*ClientTally{}
	days, refDays := map[dayCookie]*DayTally{}, map[dayCookie]*DayTally{}
	exact, domainOnly := 0, 0
	check := func(prefixes []hashx.Prefix) (got, want Reidentification) {
		t.Helper()
		got, want = x.Reidentify(prefixes), x.referenceReidentify(prefixes)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Reidentify(%v):\n got %+v\nwant %+v", prefixes, got, want)
		}
		return got, want
	}
	for _, p := range feed.probes {
		got, want := check(p.Prefixes)
		switch {
		case got.Exact:
			exact++
		case got.CommonDomain != "":
			domainOnly++
		}
		if clients[p.ClientID] == nil {
			clients[p.ClientID], refClients[p.ClientID] = NewClientTally(), NewClientTally()
		}
		clients[p.ClientID].Observe(got, len(p.Prefixes))
		refClients[p.ClientID].Observe(want, len(p.Prefixes))
		k := dayCookie{UnixDay(p.Time), p.ClientID}
		if days[k] == nil {
			days[k], refDays[k] = NewDayTally(), NewDayTally()
		}
		days[k].Observe(got)
		referenceDayObserve(refDays[k], want)
	}
	if exact == 0 || domainOnly == 0 {
		t.Fatalf("bad scenario: %d exact and %d domain-only probes of %d", exact, domainOnly, len(feed.probes))
	}
	if !reflect.DeepEqual(clients, refClients) {
		t.Error("client tallies fed Reidentify diverge from those fed the reference")
	}
	if !reflect.DeepEqual(days, refDays) {
		t.Error("day tallies fed Reidentify diverge from the reference Observe fed the reference")
	}

	// Prefix sets off the beaten path: nothing, one prefix, a prefix
	// the index has never seen mixed in, the same prefix twice, and the
	// prefixes of two unrelated sites in one request.
	rng := rand.New(rand.NewSource(17))
	urls := x.URLs()
	prefixesOf := func(u string) []hashx.Prefix {
		var out []hashx.Prefix
		for _, d := range urlx.FromExpression(u).Decompositions() {
			out = append(out, hashx.SumPrefix(d))
		}
		return out
	}
	check(nil)
	check([]hashx.Prefix{})
	for i := 0; i < 2000; i++ {
		a := prefixesOf(urls[rng.Intn(len(urls))])
		b := prefixesOf(urls[rng.Intn(len(urls))])
		one := a[rng.Intn(len(a))]
		subset := a[:1+rng.Intn(len(a))]
		check([]hashx.Prefix{one})
		check(subset)
		check([]hashx.Prefix{one, one})
		check(append([]hashx.Prefix{hashx.Prefix(rng.Uint32())}, subset...))
		check(append(append([]hashx.Prefix(nil), subset...), hashx.Prefix(rng.Uint32())))
		check([]hashx.Prefix{one, b[rng.Intn(len(b))]})
		check(append(append([]hashx.Prefix(nil), a...), b...))
	}
}

// TestReidentifyAllocs is the allocation gate on the replay hot path:
// re-identifying a two-prefix exact probe allocates its result's two
// slices (the prefix copy and the candidate list) and nothing else —
// no host parsing, no label slices.
func TestReidentifyAllocs(t *testing.T) {
	x, _ := longTestIndex()
	prefixes := probeFor("c", day(0, 9), "news.example/world").Prefixes
	if r := x.Reidentify(prefixes); len(prefixes) != 2 || !r.Exact || r.CommonDomain != "news.example" {
		t.Fatalf("bad scenario: %d prefixes -> %+v", len(prefixes), r)
	}
	if allocs := testing.AllocsPerRun(1000, func() { _ = x.Reidentify(prefixes) }); allocs > 2 {
		t.Errorf("Reidentify: %v allocs/op, want at most 2 (Prefixes, Candidates)", allocs)
	}
}
