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
package core

import (
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
	urls []string
	// domains[id] is the registrable domain of urls[id] (a substring of
	// it), kept so re-identification never re-derives it per probe.
	domains   []string
	decomps   [][]string
	prefixSet []map[hashx.Prefix]struct{}
	// urlsByPrefix maps a prefix to the URLs having a decomposition with
	// that prefix.
	urlsByPrefix map[hashx.Prefix][]int32
	// exprCount counts distinct decomposition expressions per prefix:
	// the k-anonymity set size. Each distinct expression feeds exactly
	// one prefix.
	exprCount map[hashx.Prefix]int32
	exprSeen  map[string]struct{}
	// byDomain groups URL indices by registrable domain.
	byDomain map[string][]int32
}

// NewIndex builds an index over canonical URL expressions
// ("host/path?query", as produced by urlx or the corpus generator).
func NewIndex(urls []string) *Index {
	x := &Index{
		urlsByPrefix: make(map[hashx.Prefix][]int32),
		exprCount:    make(map[hashx.Prefix]int32),
		exprSeen:     make(map[string]struct{}),
		byDomain:     make(map[string][]int32),
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
	x.decomps = append(x.decomps, decomps)

	pset := make(map[hashx.Prefix]struct{}, len(decomps))
	for _, d := range decomps {
		p := hashx.SumPrefix(d)
		if _, dup := pset[p]; !dup {
			pset[p] = struct{}{}
			x.urlsByPrefix[p] = append(x.urlsByPrefix[p], id)
		}
		if _, seen := x.exprSeen[d]; !seen {
			x.exprSeen[d] = struct{}{}
			x.exprCount[p]++
		}
	}
	x.prefixSet = append(x.prefixSet, pset)

	dom := urlx.RegisteredDomain(urlx.HostOf(urlExpr))
	x.domains = append(x.domains, dom)
	x.byDomain[dom] = append(x.byDomain[dom], id)
}

// Len returns the number of indexed URLs.
func (x *Index) Len() int { return len(x.urls) }

// URLs returns the indexed URLs (shared slice; do not mutate).
func (x *Index) URLs() []string { return x.urls }

// DomainURLs returns the URLs indexed under a registrable domain.
func (x *Index) DomainURLs(domain string) []string {
	ids := x.byDomain[domain]
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = x.urls[id]
	}
	return out
}

// Domains returns all indexed registrable domains, sorted.
func (x *Index) Domains() []string {
	out := make([]string, 0, len(x.byDomain))
	for d := range x.byDomain {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// DecompositionsOf returns the cached decompositions of an indexed URL
// id, or nil for foreign URLs.
func (x *Index) decompositionsOf(id int32) []string { return x.decomps[id] }

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
