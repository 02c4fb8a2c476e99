//sbcheck:deterministic

// Package core implements the paper's primary contribution: quantifying
// and exploiting the information that Safe Browsing prefixes leak.
//
// It provides the provider-side machinery of Sections 5-6:
//
//   - Index: the web index Google and Yandex are assumed to maintain,
//     mapping 32-bit prefixes back to URLs and decomposition expressions;
//   - the k-anonymity privacy metric for single-prefix queries;
//   - multi-prefix re-identification (URL and domain level);
//   - Algorithm 1, which chooses the prefixes to insert in the client
//     database to track a target URL;
//   - the Tracker, which consumes the server's probe log and emits
//     tracking events;
//   - the temporal-correlation engine of Section 6.3.
//
// Scoring runs on numbers. An Index numbers every URL it holds and
// every registrable domain, and Index.Score answers a probe with a
// Score: how many URLs explain it, and the id of the exact URL or the
// common domain. The tallies (ClientTally, DayTally) count those ids;
// names are looked up only when a report is built from a tally, through
// the index that assigned them. Reidentify gives the same answer
// spelled out as names, for callers that read the candidate list.
package core

import (
	"slices"
	"sort"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/urlx"
)

// Index is the provider's view of the web: every known URL with its
// decompositions, inverted by 32-bit prefix. The paper's threat model
// grants the provider this index ("since Google and Yandex have web
// indexing capabilities, we safely assume that they maintain the database
// of all webpages and URLs on the web").
type Index struct {
	// urls[id] is URL number id, numbered in Add order. A URL added
	// twice holds two ids; both explain exactly the same probes, so
	// neither is ever an exact hit on its own.
	urls []string
	// prefixes[id] is urls[id]'s distinct decomposition prefixes: a
	// handful per URL, so a membership test is a short scan.
	prefixes [][]hashx.Prefix
	// domainOf[id] is the number of urls[id]'s registrable domain.
	domainOf []int32
	// domains[n] is registrable domain number n (a substring of the
	// first URL that had it), numbered in order of first appearance:
	// one number per name, however many URLs share it.
	domains   []string
	domainIDs map[string]int32
	// byDomain[n] lists the URL ids under domain number n.
	byDomain [][]int32
	// urlsByPrefix maps a prefix to the URLs having a decomposition with
	// that prefix.
	urlsByPrefix map[hashx.Prefix][]int32
	// exprCount counts distinct decomposition expressions per prefix:
	// the k-anonymity set size. Each distinct expression feeds exactly
	// one prefix.
	exprCount map[hashx.Prefix]int32
	exprSeen  map[string]struct{}
}

// NewIndex builds an index over canonical URL expressions
// ("host/path?query", as produced by urlx or the corpus generator).
func NewIndex(urls []string) *Index {
	x := &Index{
		domainIDs:    make(map[string]int32),
		urlsByPrefix: make(map[hashx.Prefix][]int32),
		exprCount:    make(map[hashx.Prefix]int32),
		exprSeen:     make(map[string]struct{}),
	}
	for _, u := range urls {
		x.Add(u)
	}
	return x
}

// Add indexes one canonical URL expression.
func (x *Index) Add(urlExpr string) {
	id := int32(len(x.urls))
	decomps := urlx.FromExpression(urlExpr).Decompositions()
	x.urls = append(x.urls, urlExpr)

	pset := make([]hashx.Prefix, 0, len(decomps))
	for _, d := range decomps {
		p := hashx.SumPrefix(d)
		if !slices.Contains(pset, p) {
			pset = append(pset, p)
			x.urlsByPrefix[p] = append(x.urlsByPrefix[p], id)
		}
		if _, seen := x.exprSeen[d]; !seen {
			x.exprSeen[d] = struct{}{}
			x.exprCount[p]++
		}
	}
	x.prefixes = append(x.prefixes, pset)

	dom := urlx.RegisteredDomain(urlx.HostOf(urlExpr))
	n, ok := x.domainIDs[dom]
	if !ok {
		n = int32(len(x.domains))
		x.domainIDs[dom] = n
		x.domains = append(x.domains, dom)
		x.byDomain = append(x.byDomain, nil)
	}
	x.domainOf = append(x.domainOf, n)
	x.byDomain[n] = append(x.byDomain[n], id)
}

// Len returns the number of indexed URLs.
func (x *Index) Len() int { return len(x.urls) }

// URLs returns the indexed URLs (shared slice; do not mutate).
func (x *Index) URLs() []string { return x.urls }

// DomainURLs returns the URLs indexed under a registrable domain.
func (x *Index) DomainURLs(domain string) []string {
	var ids []int32
	if n, ok := x.domainIDs[domain]; ok {
		ids = x.byDomain[n]
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = x.urls[id]
	}
	return out
}

// Domains returns all indexed registrable domains, sorted.
func (x *Index) Domains() []string {
	out := append(make([]string, 0, len(x.domains)), x.domains...)
	sort.Strings(out)
	return out
}

// KAnonymity returns the number of distinct indexed decomposition
// expressions whose digest shares the prefix — the paper's privacy
// metric: how many URLs the provider must distinguish between when it
// receives this single prefix. Zero means the prefix is unknown to the
// index (an orphan from the index's perspective).
func (x *Index) KAnonymity(p hashx.Prefix) int {
	return int(x.exprCount[p])
}

// MaxKAnonymity returns the best-hidden prefix and its anonymity-set
// size: the worst case for the provider (Theorem 1's M, measured).
func (x *Index) MaxKAnonymity() (hashx.Prefix, int) {
	var best hashx.Prefix
	bestN := int32(0)
	for p, n := range x.exprCount {
		if n > bestN {
			best, bestN = p, n
		}
	}
	return best, int(bestN)
}

// MinKAnonymity returns the most exposed live prefix and its anonymity
// set size: the worst case for a user.
func (x *Index) MinKAnonymity() (hashx.Prefix, int) {
	var worst hashx.Prefix
	worstN := int32(-1)
	for p, n := range x.exprCount {
		if worstN < 0 || n < worstN {
			worst, worstN = p, n
		}
	}
	if worstN < 0 {
		return 0, 0
	}
	return worst, int(worstN)
}

// KAnonymityHistogram returns counts of prefixes by anonymity-set size.
func (x *Index) KAnonymityHistogram() map[int]int {
	h := make(map[int]int)
	for _, n := range x.exprCount {
		h[int(n)]++
	}
	return h
}
