package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"sbprivacy/internal/sbserver"
)

// Longitudinal is the day-over-day re-identification correlator: it
// buckets a probe stream into UTC calendar days, re-identifies each
// probe against the provider's web index, and — across days — links
// cookies that vanish to cookies that appear with a matching browsing
// profile. This is the paper's retention threat stretched over a long
// horizon: a cookie reset does not reset the client's *habits*, and a
// provider holding the probe log can re-identify a churned client from
// the sites it keeps revisiting.
//
// Longitudinal implements sbserver.ProbeSink, so it runs live
// (subscribed to a server) or offline (fed from probestore.Replay).
// Its Report is a pure function of the observed probe multiset:
// delivery order and interleaving do not change it, which is what
// makes the campaign-path report and a pure replay over the resulting
// store deeply equal. Safe for concurrent use.
//
// New analyses drive stream.LinkageStage instead: at W = 0 it reports
// exactly what this type does.
type Longitudinal struct {
	mu   sync.Mutex
	x    *Index
	cfg  LongitudinalConfig
	days map[int64]map[string]*DayTally // unix day → cookie → tally
}

var _ sbserver.ProbeSink = (*Longitudinal)(nil)

// LongitudinalConfig tunes the correlator's linkage thresholds. A
// day-profile is the set of re-identified exact URLs plus registrable
// domains a cookie produced that day: exact pages carry the client's
// personal revisit fingerprint, domains catch the coarser site habit.
type LongitudinalConfig struct {
	// MinShared is the least number of distinct profile elements (exact
	// URLs or domains) two day-profiles must share before a link is
	// considered. Zero means the default (3): a shared page brings its
	// own domain with it, so anything below three collapses to
	// single-page evidence — and one page in common is what a
	// coincidence looks like.
	MinShared int
	// MinSharedURLs is the least number of shared exact URLs per link.
	// Shared domains are cheap coincidences — everyone visits popular
	// sites — but a shared favourite *page* is a personal fingerprint.
	// Zero means the default (1); negative allows links on domain
	// evidence alone.
	MinSharedURLs int
	// MinLinkScore is the least similarity score for a link. The score
	// is the overlap coefficient — shared elements over the size of the
	// smaller profile — which, unlike Jaccard, does not punish a
	// light-activity day for being compared against a rich one. Zero
	// means the default (0.5).
	MinLinkScore float64
}

// withDefaults fills the zero fields.
func (c LongitudinalConfig) withDefaults() LongitudinalConfig {
	if c.MinShared <= 0 {
		c.MinShared = 3
	}
	if c.MinSharedURLs == 0 {
		c.MinSharedURLs = 1
	}
	if c.MinLinkScore <= 0 {
		c.MinLinkScore = 0.5
	}
	return c
}

// NewLongitudinal builds a longitudinal correlator over the provider's
// web index.
func NewLongitudinal(x *Index, cfg LongitudinalConfig) *Longitudinal {
	return &Longitudinal{
		x:    x,
		cfg:  cfg.withDefaults(),
		days: make(map[int64]map[string]*DayTally),
	}
}

// Observe implements sbserver.ProbeSink: the probe is re-identified
// and tallied under its (calendar day, cookie) bucket. The
// classification and tally live in DayTally — the scoring core shared
// with the streaming linkage stage of internal/stream.
func (l *Longitudinal) Observe(p sbserver.Probe) {
	s := l.x.Score(p.Prefixes)
	day := UnixDay(p.Time)
	l.mu.Lock()
	defer l.mu.Unlock()
	cookies := l.days[day]
	if cookies == nil {
		cookies = make(map[string]*DayTally)
		l.days[day] = cookies
	}
	agg := cookies[p.ClientID]
	if agg == nil {
		agg = NewDayTally()
		cookies[p.ClientID] = agg
	}
	agg.Observe(s)
}

// CookieDay is one cookie's re-identified activity within one day.
type CookieDay struct {
	// Cookie is the Safe Browsing cookie.
	Cookie string
	// Probes is the number of full-hash requests observed that day.
	Probes int
	// ExactURLs are the URLs re-identified exactly.
	ExactURLs []NameCount
	// Domains are the registrable domains re-identified (exact
	// re-identifications count toward their domain too).
	Domains []NameCount
	// Unresolved counts probes that stayed ambiguous or unknown.
	Unresolved int
	// New is true when this is the cookie's first active day in the
	// observed window.
	New bool
}

// DayReport is the correlator's view of one calendar day.
type DayReport struct {
	// Date is the UTC date ("2006-01-02").
	Date string
	// Day is the zero-based index from the first observed day; the
	// report covers every day in between, including silent ones.
	Day int
	// Cookies holds one entry per cookie active that day, sorted.
	Cookies []CookieDay
	// NewCookies lists the cookies first seen on this day, sorted.
	NewCookies []string
	// VanishedCookies lists the cookies active on the previous calendar
	// day but silent on this one, sorted.
	VanishedCookies []string
}

// CookieLink is one day-over-day linkage: a cookie that vanished,
// re-identified as a cookie that appeared the next day, because their
// browsing profiles (re-identified domain sets) overlap.
type CookieLink struct {
	// Date is the day the new cookie appeared.
	Date string
	// From is the vanished cookie (active the previous day).
	From string
	// To is the newly appeared cookie.
	To string
	// Shared is the number of distinct profile elements (exact URLs and
	// domains) both day-profiles contain.
	Shared int
	// SharedURLs is how many of those are exact URLs — the strong,
	// fingerprint-grade portion of the evidence.
	SharedURLs int
	// Score is the overlap coefficient of the two profiles (shared
	// elements over the smaller profile's size) — the revisit-based
	// re-identification confidence of this link.
	Score float64
}

// ChainReport is a maximal sequence of linked cookies: the correlator's
// claim that they are one client churning its cookie.
type ChainReport struct {
	// Cookies is the linked sequence, oldest first.
	Cookies []string
	// Confidence is the mean link score along the chain.
	Confidence float64
}

// LongitudinalReport is the correlator's full output.
type LongitudinalReport struct {
	// Days covers every calendar day from the first to the last
	// observed probe, in order (silent days included, empty).
	Days []DayReport
	// Links are the accepted day-over-day cookie linkages, ordered by
	// date, then vanished cookie.
	Links []CookieLink
	// Chains are the transitive closures of Links, ordered by their
	// first cookie.
	Chains []ChainReport
}

// Report snapshots the correlator's conclusions. It is deterministic
// for a given probe multiset; live callers must flush the server first
// so in-flight probes are included. The report
// building itself is BuildLongitudinalReport — the deterministic core
// shared with the streaming linkage stage of internal/stream.
func (l *Longitudinal) Report() *LongitudinalReport {
	l.mu.Lock()
	defer l.mu.Unlock()
	return BuildLongitudinalReport(l.x, l.days, l.cfg)
}

// buildChains follows the accepted links transitively: each chain is
// one claimed identity across cookie resets. Links form a partial
// bijection (each cookie is From of at most one link and To of at most
// one), so chains are simple paths.
func buildChains(links []CookieLink) []ChainReport {
	succ := make(map[string]CookieLink, len(links))
	isTo := make(map[string]bool, len(links))
	for _, lk := range links {
		succ[lk.From] = lk
		isTo[lk.To] = true
	}
	var roots []string
	for _, lk := range links {
		if !isTo[lk.From] {
			roots = append(roots, lk.From)
		}
	}
	sort.Strings(roots)
	var chains []ChainReport
	for _, r := range roots {
		ch := ChainReport{Cookies: []string{r}}
		sum, n := 0.0, 0
		for cur := r; ; {
			lk, ok := succ[cur]
			if !ok {
				break
			}
			ch.Cookies = append(ch.Cookies, lk.To)
			sum += lk.Score
			n++
			cur = lk.To
		}
		ch.Confidence = sum / float64(n)
		chains = append(chains, ch)
	}
	return chains
}

// String renders the report as the provider's campaign dossier: a
// per-day activity summary, the accepted day-over-day links, and the
// linked identities. Per-cookie detail stays in the structured report.
func (r *LongitudinalReport) String() string {
	var b strings.Builder
	for _, d := range r.Days {
		probes, exact, domains, unresolved := 0, 0, 0, 0
		for _, c := range d.Cookies {
			probes += c.Probes
			for _, u := range c.ExactURLs {
				exact += u.Count
			}
			for _, dom := range c.Domains {
				domains += dom.Count
			}
			unresolved += c.Unresolved
		}
		fmt.Fprintf(&b, "day %s (#%d): %d cookies (%d new, %d vanished), %d probes, %d exact, %d domain-level, %d unresolved\n",
			d.Date, d.Day, len(d.Cookies), len(d.NewCookies), len(d.VanishedCookies),
			probes, exact, domains, unresolved)
	}
	if len(r.Links) > 0 {
		fmt.Fprintf(&b, "day-over-day cookie links (%d):\n", len(r.Links))
		for _, lk := range r.Links {
			fmt.Fprintf(&b, "  %s  %s -> %s  shared %d (%d exact URLs)  score %.2f\n",
				lk.Date, lk.From, lk.To, lk.Shared, lk.SharedURLs, lk.Score)
		}
	}
	if len(r.Chains) > 0 {
		fmt.Fprintf(&b, "linked identities (%d):\n", len(r.Chains))
		for _, ch := range r.Chains {
			fmt.Fprintf(&b, "  %s  (confidence %.2f)\n",
				strings.Join(ch.Cookies, " -> "), ch.Confidence)
		}
	}
	return b.String()
}
