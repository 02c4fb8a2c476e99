package core

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"time"
)

// This file holds the scoring cores of the streaming stages of
// internal/stream (and of the Longitudinal reference correlator): the
// per-cookie re-identification tally, the per-(day, cookie) profile
// tally, and the deterministic report builders over either. The stages
// hold the tallies in windowed, evictable state and call the builders
// over whatever is resident — which is what makes a windowed snapshot
// deep-equal an unbounded run restricted to the same window.

// idCount is one entry of a counts multiset: an index id (a URL's or a
// registrable domain's) and how many probes concluded it.
type idCount struct{ id, n int32 }

// counts is a multiset of index ids — the exact URLs or the domains of
// a tally — kept sorted by id. A probe is a rare event (a client sends
// one only on a local prefix hit), so a tally sees a handful of ids,
// and a streaming stage holds one tally per (day, cookie): a slice is a
// fraction of a map's memory there, and holding no pointers it is
// nothing the collector has to scan. Sorted order makes the
// intersection of two profiles a merge and the tallies comparable with
// reflect.DeepEqual; the price is an insert that shifts the tail.
type counts []idCount

// add adds n to id's count.
//
//sbcheck:hotpath
func (c *counts) add(id, n int32) {
	// Hand-rolled: through slices.BinarySearchFunc's comparator call,
	// BenchmarkPipelineObserve ran 2–12 % slower.
	lo, hi := 0, len(*c)
	for lo < hi {
		if h := int(uint(lo+hi) >> 1); (*c)[h].id < id {
			lo = h + 1
		} else {
			hi = h
		}
	}
	if lo < len(*c) && (*c)[lo].id == id {
		(*c)[lo].n += n
		return
	}
	*c = slices.Insert(*c, lo, idCount{id, n})
}

// shared returns the number of ids c and o have in common.
func (c counts) shared(o counts) int {
	n := 0
	for i, j := 0, 0; i < len(c) && j < len(o); {
		switch {
		case c[i].id < o[j].id:
			i++
		case c[i].id > o[j].id:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// byCount returns the entries as a report lists them, each id resolved
// through names: most counted first, ties by name. nil when empty.
func (c counts) byCount(names []string) []NameCount {
	if len(c) == 0 {
		return nil
	}
	out := make([]NameCount, len(c))
	for i, e := range c {
		out[i] = NameCount{Name: names[e.id], Count: int(e.n)}
	}
	slices.SortFunc(out, func(a, b NameCount) int {
		if d := cmp.Compare(b.Count, a.Count); d != 0 {
			return d
		}
		return strings.Compare(a.Name, b.Name)
	})
	return out
}

// ClientTally is the per-cookie re-identification tally: how one
// cookie's probes resolved against the web index. The streaming
// reident stage holds one per cookie when unbounded and one per (day,
// cookie) when windowed, so expired days can be evicted. Tallies are
// additive: merging the per-day tallies of a window reproduces exactly
// the tally a single pass over the window's probes would have built.
// A tally counts the ids of one index's Scores, and only that index
// can render it. Not safe for concurrent use; callers hold their own
// lock.
type ClientTally struct {
	probes    int
	prefixes  int
	exact     counts
	domains   counts
	ambiguous int
	unknown   int
}

// NewClientTally returns an empty tally.
func NewClientTally() *ClientTally {
	return &ClientTally{}
}

// Observe files one probe's Score: an exact URL, a common registrable
// domain, an ambiguous candidate set, or nothing the index explains.
// prefixes is the probe's prefix count.
func (t *ClientTally) Observe(s Score, prefixes int) {
	t.probes++
	t.prefixes += prefixes
	switch {
	case s.url != 0:
		t.exact.add(s.url-1, 1)
	case s.domain != 0:
		t.domains.add(s.domain-1, 1)
	case s.n > 0:
		t.ambiguous++
	default:
		t.unknown++
	}
}

// MergeFrom adds o's counts into t. Merging is commutative and
// associative, so any merge order over the same tallies produces the
// same result.
func (t *ClientTally) MergeFrom(o *ClientTally) {
	t.probes += o.probes
	t.prefixes += o.prefixes
	for _, e := range o.exact {
		t.exact.add(e.id, e.n)
	}
	for _, e := range o.domains {
		t.domains.add(e.id, e.n)
	}
	t.ambiguous += o.ambiguous
	t.unknown += o.unknown
}

// Probes returns the number of probes tallied — the record count a
// streaming stage charges to its eviction counters when the tally is
// discarded.
func (t *ClientTally) Probes() int { return t.probes }

// Report renders the tally as the per-client report entry, naming its
// URLs and domains through x, the index whose Scores it counted.
func (t *ClientTally) Report(x *Index, clientID string) ClientReport {
	return ClientReport{
		ClientID:  clientID,
		Probes:    t.probes,
		Prefixes:  t.prefixes,
		ExactURLs: t.exact.byCount(x.urls),
		Domains:   t.domains.byCount(x.domains),
		Ambiguous: t.ambiguous,
		Unknown:   t.unknown,
	}
}

// BuildClientReport renders a cookie→tally map as the deterministic
// per-client report: one entry per cookie, sorted by cookie. The
// streaming reident stage ends on this; x is the index whose Scores
// the tallies counted.
func BuildClientReport(x *Index, clients map[string]*ClientTally) *Report {
	rep := &Report{Clients: make([]ClientReport, 0, len(clients))}
	for id, t := range clients {
		rep.Clients = append(rep.Clients, t.Report(x, id))
	}
	sort.Slice(rep.Clients, func(i, j int) bool {
		return rep.Clients[i].ClientID < rep.Clients[j].ClientID
	})
	return rep
}

// DayTally is one cookie's re-identified activity within one UTC
// calendar day: the scoring core of Longitudinal, also the unit of
// windowed state in the streaming linkage stage. Like ClientTally it
// counts one index's ids. Not safe for concurrent use; callers hold
// their own lock.
type DayTally struct {
	probes     int
	urls       counts
	domains    counts
	unresolved int
}

// NewDayTally returns an empty tally.
func NewDayTally() *DayTally {
	return &DayTally{}
}

// Observe files one probe's Score into the day profile: exact URLs
// count toward their registrable domain too, so a personal page
// strengthens both the page and the site evidence. (An exact Score
// always carries its URL's domain.)
func (t *DayTally) Observe(s Score) {
	t.probes++
	switch {
	case s.url != 0:
		t.urls.add(s.url-1, 1)
		t.domains.add(s.domain-1, 1)
	case s.domain != 0:
		t.domains.add(s.domain-1, 1)
	default:
		t.unresolved++
	}
}

// Probes returns the number of probes tallied (see ClientTally.Probes).
func (t *DayTally) Probes() int { return t.probes }

// cookieDay renders the tally as the report's entry for cookie, naming
// its URLs and domains through x. New is left for the caller, which
// knows the cookie's first day.
func (t *DayTally) cookieDay(x *Index, cookie string) CookieDay {
	return CookieDay{
		Cookie:     cookie,
		Probes:     t.probes,
		ExactURLs:  t.urls.byCount(x.urls),
		Domains:    t.domains.byCount(x.domains),
		Unresolved: t.unresolved,
	}
}

// profileSize is the size of the tally's identity fingerprint: the
// distinct re-identified exact URLs plus the distinct registrable
// domains. Exact pages are what distinguish two clients sharing the
// same popular sites, so linkage weighs them separately.
func (t *DayTally) profileSize() int { return len(t.urls) + len(t.domains) }

// UnixDay maps a time to its UTC calendar day number (days since the
// Unix epoch, floored — correct for pre-1970 times too). It is the day
// key shared by the batch Longitudinal and every windowed streaming
// stage, so both sides bucket and evict on identical boundaries.
func UnixDay(t time.Time) int64 {
	sec := t.Unix()
	day := sec / 86400
	if sec%86400 < 0 {
		day--
	}
	return day
}

// DayDate renders a unix day number as its UTC date ("2006-01-02").
func DayDate(day int64) string {
	return time.Unix(day*86400, 0).UTC().Format("2006-01-02")
}

// BuildLongitudinalReport builds the day-over-day report from
// (day → cookie → tally) state: per-day activity with new/vanished
// cookies, greedy day-over-day linkage under cfg's thresholds, and the
// transitive identity chains. It is a pure deterministic function of
// the state passed in — the batch Longitudinal calls it over
// everything it retained, a windowed streaming stage over whatever
// days survived eviction, and equal state yields deeply equal reports.
// x is the index whose Scores the tallies counted.
func BuildLongitudinalReport(x *Index, days map[int64]map[string]*DayTally, cfg LongitudinalConfig) *LongitudinalReport {
	cfg = cfg.withDefaults()
	rep := &LongitudinalReport{}
	if len(days) == 0 {
		return rep
	}
	dayKeys := make([]int64, 0, len(days))
	for d := range days {
		dayKeys = append(dayKeys, d)
	}
	sort.Slice(dayKeys, func(i, j int) bool { return dayKeys[i] < dayKeys[j] })
	first, last := dayKeys[0], dayKeys[len(dayKeys)-1]

	// First- and last-seen days per cookie decide New and link
	// eligibility. This is a retrospective analysis over the retained
	// window, so it may look ahead: a cookie only counts as a churn
	// candidate if it appeared (first seen) or disappeared (last seen)
	// for good — a light user skipping a day and returning under its
	// stable cookie is neither.
	firstSeen := make(map[string]int64)
	lastSeen := make(map[string]int64)
	for _, d := range dayKeys {
		for c := range days[d] {
			if _, seen := firstSeen[c]; !seen {
				firstSeen[c] = d
			}
			lastSeen[c] = d
		}
	}

	for d := first; d <= last; d++ {
		dr := DayReport{Date: DayDate(d), Day: int(d - first)}
		cookies := days[d]
		names := make([]string, 0, len(cookies))
		for c := range cookies {
			names = append(names, c)
		}
		sort.Strings(names)
		for _, c := range names {
			cd := cookies[c].cookieDay(x, c)
			cd.New = firstSeen[c] == d
			dr.Cookies = append(dr.Cookies, cd)
			if cd.New {
				dr.NewCookies = append(dr.NewCookies, c)
			}
		}
		for c := range days[d-1] {
			if _, active := cookies[c]; !active {
				dr.VanishedCookies = append(dr.VanishedCookies, c)
			}
		}
		sort.Strings(dr.VanishedCookies)
		rep.Days = append(rep.Days, dr)

		if d > first {
			// Link candidates: cookies gone for good against cookies
			// just born. The descriptive VanishedCookies list is wider
			// (it includes users who merely skipped a day).
			var retired []string
			for _, c := range dr.VanishedCookies {
				if lastSeen[c] == d-1 {
					retired = append(retired, c)
				}
			}
			rep.Links = append(rep.Links, linkDay(days, cfg, d, retired, dr.NewCookies)...)
		}
	}
	rep.Chains = buildChains(rep.Links)
	return rep
}

// linkDay matches the cookies that retired going into day d against
// the cookies that appeared on day d, comparing the retired cookie's
// previous-day profile with the new cookie's day-d profile. Matching
// is greedy — best-evidenced pair first, each cookie claimed at most
// once; ties break lexicographically, keeping the report
// deterministic.
func linkDay(days map[int64]map[string]*DayTally, cfg LongitudinalConfig, d int64, vanished, appeared []string) []CookieLink {
	// Resolve each appeared cookie's tally once per day, not once per
	// (vanished, appeared) pair.
	curs := make([]*DayTally, len(appeared))
	for i, a := range appeared {
		curs[i] = days[d][a]
	}
	var cands []CookieLink
	for _, v := range vanished {
		prev := days[d-1][v]
		if prev.profileSize() == 0 {
			continue
		}
		for i, a := range appeared {
			cur := curs[i]
			if cur.profileSize() == 0 {
				continue
			}
			sharedURLs := prev.urls.shared(cur.urls)
			if sharedURLs < cfg.MinSharedURLs {
				continue // most pairs share no page; skip the domain pass
			}
			shared := sharedURLs + prev.domains.shared(cur.domains)
			if shared < cfg.MinShared {
				continue
			}
			score := float64(shared) / float64(min(prev.profileSize(), cur.profileSize()))
			if score < cfg.MinLinkScore {
				continue
			}
			cands = append(cands, CookieLink{
				Date: DayDate(d), From: v, To: a,
				Shared: shared, SharedURLs: sharedURLs, Score: score,
			})
		}
	}
	// Rank by the volume of shared evidence first — exact URLs before
	// totals — and score last: two tiny profiles agreeing perfectly
	// (2/2) is weaker evidence than two rich profiles agreeing well
	// (6/8), and small-profile perfect scores are exactly what
	// coincidences look like.
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.SharedURLs != b.SharedURLs {
			return a.SharedURLs > b.SharedURLs
		}
		if a.Shared != b.Shared {
			return a.Shared > b.Shared
		}
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	usedFrom := make(map[string]bool)
	usedTo := make(map[string]bool)
	var out []CookieLink
	for _, c := range cands {
		if usedFrom[c.From] || usedTo[c.To] {
			continue
		}
		usedFrom[c.From] = true
		usedTo[c.To] = true
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].From < out[j].From })
	return out
}
