package core

import (
	"cmp"
	"context"
	"math/rand"
	"reflect"
	"slices"
	"strings"
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
			if !slices.Contains(x.prefixes[id], p) {
				all = false
				break
			}
		}
		if all {
			r.Candidates = append(r.Candidates, x.urls[id])
		}
	}
	r.Exact = len(r.Candidates) == 1
	r.CommonDomain = parsedCommonDomain(r.Candidates)
	return r
}

func parsedCommonDomain(urls []string) string {
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

// refCounts is counts as it stood when the tallies kept names: a
// multiset of names sorted by name.
type refCounts []NameCount

func (c *refCounts) add(name string, n int) {
	i, found := slices.BinarySearchFunc(*c, name, func(e NameCount, name string) int {
		return strings.Compare(e.Name, name)
	})
	if found {
		(*c)[i].Count += n
		return
	}
	*c = slices.Insert(*c, i, NameCount{Name: name, Count: n})
}

func (c refCounts) byCount() []NameCount {
	out := slices.Clone([]NameCount(c))
	slices.SortStableFunc(out, func(a, b NameCount) int { return cmp.Compare(b.Count, a.Count) })
	return out
}

// refClientTally is ClientTally as it stood when it filed a
// Reidentification by name.
type refClientTally struct {
	probes    int
	prefixes  int
	exact     refCounts
	domains   refCounts
	ambiguous int
	unknown   int
}

func (t *refClientTally) Observe(r Reidentification, prefixes int) {
	t.probes++
	t.prefixes += prefixes
	switch {
	case r.Exact:
		t.exact.add(r.Candidates[0], 1)
	case r.CommonDomain != "":
		t.domains.add(r.CommonDomain, 1)
	case len(r.Candidates) > 0:
		t.ambiguous++
	default:
		t.unknown++
	}
}

func (t *refClientTally) Report(clientID string) ClientReport {
	return ClientReport{
		ClientID:  clientID,
		Probes:    t.probes,
		Prefixes:  t.prefixes,
		ExactURLs: t.exact.byCount(),
		Domains:   t.domains.byCount(),
		Ambiguous: t.ambiguous,
		Unknown:   t.unknown,
	}
}

// refDayTally is DayTally as it stood when it filed a Reidentification
// by name and parsed an exact hit's domain out of the URL.
type refDayTally struct {
	probes     int
	urls       refCounts
	domains    refCounts
	unresolved int
}

func (t *refDayTally) Observe(r Reidentification) {
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

func (t *refDayTally) cookieDay(cookie string) CookieDay {
	return CookieDay{
		Cookie:     cookie,
		Probes:     t.probes,
		ExactURLs:  t.urls.byCount(),
		Domains:    t.domains.byCount(),
		Unresolved: t.unresolved,
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

// checkScore fails t unless s is r spelled as x's ids: the candidate
// count, the exact URL and the common domain. An exact hit carries its
// URL's domain even when that domain is the empty one.
func checkScore(t *testing.T, x *Index, prefixes []hashx.Prefix, s Score, r Reidentification) {
	t.Helper()
	exact, dom := "", ""
	if s.url != 0 {
		exact = x.urls[s.url-1]
	}
	if s.domain != 0 {
		dom = x.domains[s.domain-1]
	}
	if int(s.n) != len(r.Candidates) || (s.url != 0) != r.Exact || (r.Exact && exact != r.Candidates[0]) ||
		dom != r.CommonDomain || (s.domain != 0) != (r.Exact || r.CommonDomain != "") {
		t.Fatalf("Score(%v) = %+v (exact %q, domain %q), Reidentify = %+v", prefixes, s, exact, dom, r)
	}
}

// TestReidentifyMatchesReference holds Reidentify to the reference
// over everything a campaign's clients really send and over prefix
// sets no client would: same candidates in the same order, same Exact,
// same CommonDomain. Score must say the same in ids, and the reports
// rendered from id tallies must deep-equal those the name-keyed
// reference tallies render — per cookie, per cookie merged from its
// days (the streaming reident stage's path), and per (day, cookie).
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
	clients, refClients := map[string]*ClientTally{}, map[string]*refClientTally{}
	dayClients := map[dayCookie]*ClientTally{}
	days, refDays := map[dayCookie]*DayTally{}, map[dayCookie]*refDayTally{}
	exact, domainOnly := 0, 0
	check := func(prefixes []hashx.Prefix) (Score, Reidentification) {
		t.Helper()
		got, want := x.Reidentify(prefixes), x.referenceReidentify(prefixes)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Reidentify(%v):\n got %+v\nwant %+v", prefixes, got, want)
		}
		s := x.Score(prefixes)
		checkScore(t, x, prefixes, s, got)
		return s, got
	}
	for _, p := range feed.probes {
		s, r := check(p.Prefixes)
		switch {
		case r.Exact:
			exact++
		case r.CommonDomain != "":
			domainOnly++
		}
		if clients[p.ClientID] == nil {
			clients[p.ClientID], refClients[p.ClientID] = NewClientTally(), &refClientTally{}
		}
		clients[p.ClientID].Observe(s, len(p.Prefixes))
		refClients[p.ClientID].Observe(r, len(p.Prefixes))
		k := dayCookie{UnixDay(p.Time), p.ClientID}
		if days[k] == nil {
			days[k], refDays[k], dayClients[k] = NewDayTally(), &refDayTally{}, NewClientTally()
		}
		days[k].Observe(s)
		refDays[k].Observe(r)
		dayClients[k].Observe(s, len(p.Prefixes))
	}
	if exact == 0 || domainOnly == 0 {
		t.Fatalf("bad scenario: %d exact and %d domain-only probes of %d", exact, domainOnly, len(feed.probes))
	}
	merged := map[string]*ClientTally{}
	for k, dt := range dayClients {
		if merged[k.cookie] == nil {
			merged[k.cookie] = NewClientTally()
		}
		merged[k.cookie].MergeFrom(dt)
	}
	for c, ref := range refClients {
		want := ref.Report(c)
		if got := clients[c].Report(x, c); !reflect.DeepEqual(got, want) {
			t.Fatalf("cookie %s:\n got %+v\nwant %+v", c, got, want)
		}
		if got := merged[c].Report(x, c); !reflect.DeepEqual(got, want) {
			t.Fatalf("cookie %s merged from its days:\n got %+v\nwant %+v", c, got, want)
		}
	}
	for k, ref := range refDays {
		if got, want := days[k].cookieDay(x, k.cookie), ref.cookieDay(k.cookie); !reflect.DeepEqual(got, want) {
			t.Fatalf("day %d, cookie %s:\n got %+v\nwant %+v", k.day, k.cookie, got, want)
		}
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

// TestOddIndexesMatchReference covers two indexes a campaign never
// builds. One holds a URL expression under two ids: both explain
// exactly the same probes, so neither is ever an exact hit on its own,
// and the domain they share has one number, so a visit is counted once
// under one name. The other holds URLs with no host, whose registrable
// domain is empty: CommonDomain reports "" as no common domain, yet a
// day profile counts an exact hit's "" domain. Either way the id
// tallies render exactly what the name-keyed reference tallies render.
func TestOddIndexesMatchReference(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name   string
		urls   []string
		visits []string
		want   ClientReport
	}{
		{
			name: "duplicate URL",
			urls: []string{
				"news.example/",
				"news.example/world",
				"shop.example/cart",
				"news.example/world",
				"shop.example/",
			},
			visits: []string{"news.example/world", "news.example/world", "news.example/", "shop.example/cart", "shop.example/cart"},
			want: ClientReport{
				ClientID:  "c",
				Probes:    5,
				Prefixes:  9,
				ExactURLs: []NameCount{{Name: "shop.example/cart", Count: 2}},
				Domains:   []NameCount{{Name: "news.example", Count: 3}},
			},
		},
		{
			name:   "no host",
			urls:   []string{"/a", "/b", "news.example/"},
			visits: []string{"/a", "/"},
			want: ClientReport{
				ClientID:  "c",
				Probes:    2,
				Prefixes:  3,
				ExactURLs: []NameCount{{Name: "/a", Count: 1}},
				Ambiguous: 1,
			},
		},
	} {
		x := NewIndex(tc.urls)
		ct, refCT := NewClientTally(), &refClientTally{}
		dt, refDT := NewDayTally(), &refDayTally{}
		for i, v := range tc.visits {
			p := probeFor("c", day(0, i), v)
			s, r := x.Score(p.Prefixes), x.Reidentify(p.Prefixes)
			checkScore(t, x, p.Prefixes, s, r)
			ct.Observe(s, len(p.Prefixes))
			refCT.Observe(r, len(p.Prefixes))
			dt.Observe(s)
			refDT.Observe(r)
		}
		if got := ct.Report(x, "c"); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: client report:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
		if got, ref := ct.Report(x, "c"), refCT.Report("c"); !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: client report:\n got %+v\n ref %+v", tc.name, got, ref)
		}
		if got, ref := dt.cookieDay(x, "c"), refDT.cookieDay("c"); !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: day entry:\n got %+v\n ref %+v", tc.name, got, ref)
		}
	}
}

// TestReidentifyAllocs is the allocation gate on Reidentify:
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

// TestScoreAllocs is the allocation gate on the replay hot path: Score
// allocates nothing, whatever the probe concludes.
func TestScoreAllocs(t *testing.T) {
	x, _ := longTestIndex()
	// Two domain roots whose digests share their first 32 bits: a probe
	// of that prefix has candidates on two domains.
	x.Add("s11239.example/")
	x.Add("s21630.example/")
	collision := hashx.SumPrefix("s11239.example/")
	if hashx.SumPrefix("s21630.example/") != collision {
		t.Fatal("bad scenario: the two roots no longer collide")
	}
	for _, tc := range []struct {
		name     string
		prefixes []hashx.Prefix
		want     Score
	}{
		{"exact", probeFor("c", day(0, 9), "news.example/world").Prefixes, Score{n: 1, url: 2, domain: 1}},
		{"domain-only", []hashx.Prefix{hashx.SumPrefix("news.example/")}, Score{n: 3, domain: 1}},
		{"ambiguous", []hashx.Prefix{collision}, Score{n: 2}},
		{"unknown", []hashx.Prefix{0xdeadbeef}, Score{}},
		{"empty", nil, Score{}},
	} {
		if got := x.Score(tc.prefixes); got != tc.want {
			t.Fatalf("%s: Score = %+v, want %+v", tc.name, got, tc.want)
		}
		if allocs := testing.AllocsPerRun(1000, func() { _ = x.Score(tc.prefixes) }); allocs != 0 {
			t.Errorf("%s: Score: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}
