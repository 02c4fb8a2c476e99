// Package advisor implements the paper's proposed future work: a
// user-side privacy advisor ("we want to design a plugin for Firefox and
// Chrome to make the users aware of the associated privacy issues",
// Section 9).
//
// Before a Safe Browsing lookup goes out, the advisor computes what it
// would reveal: which decompositions hit the local database, which
// prefixes would be sent, and how re-identifiable that combination is —
// analytically at Internet scale (Section 5's balls-into-bins bounds) or
// precisely against a provider-view index when one is available. The
// client can then warn, degrade to a one-prefix query, or ask for
// consent, instead of silently leaking.
package advisor

import (
	"fmt"
	"math"

	"sbprivacy/internal/ballsbins"
	"sbprivacy/internal/core"
	"sbprivacy/internal/hashx"
	"sbprivacy/internal/prefixdb"
	"sbprivacy/internal/urlx"
)

// Risk grades what a lookup would let the provider conclude.
type Risk int

// Risk levels, from harmless to fully identifying.
const (
	// RiskNone: no local hit — nothing would be sent.
	RiskNone Risk = iota + 1
	// RiskSingle: one prefix would be sent; the URL hides in a
	// k-anonymity set (Section 5), though domain-root prefixes remain
	// invertible against SLD dictionaries (Table 10).
	RiskSingle
	// RiskDomain: multiple related prefixes would be sent; the provider
	// can identify the domain but not the exact URL.
	RiskDomain
	// RiskExact: the combination would re-identify the exact URL.
	RiskExact
)

// String names the risk level.
func (r Risk) String() string {
	switch r {
	case RiskNone:
		return "none"
	case RiskSingle:
		return "single-prefix"
	case RiskDomain:
		return "domain-identifiable"
	case RiskExact:
		return "exact-url-identifiable"
	default:
		return "unknown"
	}
}

// Hit is one local-database hit the lookup would reveal.
type Hit struct {
	List       string
	Expression string
	Prefix     hashx.Prefix
	// DomainRoot marks "host/" expressions, which re-identify domains
	// with near certainty.
	DomainRoot bool
	// KAnonymity estimates how many expressions share this prefix: from
	// the index when available, else the analytic Internet-scale bound.
	KAnonymity int
}

// Report is the advisor's pre-lookup assessment.
type Report struct {
	URL       string
	Canonical string
	// Hits are the decompositions that would trigger communication.
	Hits []Hit
	// PrefixesToSend is what the provider would receive.
	PrefixesToSend []hashx.Prefix
	// Risk is the overall grade.
	Risk Risk
	// Candidates holds the index-based re-identification result when an
	// index is configured (nil otherwise).
	Candidates []string
	// CommonDomain is the domain the provider could conclude, if any.
	CommonDomain string
	// Advice is a human-readable recommendation.
	Advice string
}

// NamedStore pairs a list name with its local prefix store.
type NamedStore struct {
	List  string
	Store prefixdb.Updatable
}

// Advisor assesses lookups before they happen.
type Advisor struct {
	// Stores are the local databases the client would match against.
	Stores []NamedStore
	// Index, when set, gives precise provider-view re-identification.
	Index *core.Index
	// WebURLs is the assumed size of the web for the analytic
	// k-anonymity bound. Zero means 60e12 (the paper's 2013 figure).
	WebURLs float64
}

// Advise computes the report for one URL without any network traffic.
func (a *Advisor) Advise(rawURL string) (*Report, error) {
	canon, err := urlx.Canonicalize(rawURL)
	if err != nil {
		return nil, err
	}
	rep := &Report{URL: rawURL, Canonical: canon.String()}

	for _, d := range canon.Decompositions() {
		p := hashx.SumPrefix(d)
		for _, ns := range a.Stores {
			if !ns.Store.Contains(p) {
				continue
			}
			rep.Hits = append(rep.Hits, Hit{
				List:       ns.List,
				Expression: d,
				Prefix:     p,
				DomainRoot: urlx.IsDomainDecomposition(d),
				KAnonymity: a.kAnonymity(p),
			})
			rep.PrefixesToSend = append(rep.PrefixesToSend, p)
			break
		}
	}

	a.grade(rep, canon)
	return rep, nil
}

// kAnonymity estimates the anonymity set of one prefix.
func (a *Advisor) kAnonymity(p hashx.Prefix) int {
	if a.Index != nil {
		if k := a.Index.KAnonymity(p); k > 0 {
			return k
		}
		return 1 // orphan from the index's view: at most one pre-image known
	}
	m := a.WebURLs
	if m <= 0 {
		m = 60e12
	}
	k, err := ballsbins.PoissonMaxLoad(m, math.Exp2(32))
	if err != nil {
		return 1
	}
	return k
}

func (a *Advisor) grade(rep *Report, canon urlx.Canonical) {
	switch len(rep.PrefixesToSend) {
	case 0:
		rep.Risk = RiskNone
		rep.Advice = "no local hit: the lookup reveals nothing to the provider"
		return
	case 1:
		rep.Risk = RiskSingle
		h := rep.Hits[0]
		if h.DomainRoot {
			rep.Advice = fmt.Sprintf(
				"one domain-root prefix would be sent; domains re-identify with near certainty "+
					"against SLD dictionaries (k-anonymity among URLs: ~%d)", h.KAnonymity)
		} else {
			rep.Advice = fmt.Sprintf(
				"one prefix would be sent; the URL hides among ~%d others", h.KAnonymity)
		}
		return
	}

	// Multiple prefixes: precise answer with an index, conservative
	// without.
	if a.Index != nil {
		re := a.Index.Reidentify(rep.PrefixesToSend)
		rep.Candidates = re.Candidates
		rep.CommonDomain = re.CommonDomain
		switch {
		case re.Exact:
			rep.Risk = RiskExact
			rep.Advice = "these prefixes uniquely identify the URL to the provider; " +
				"consider the one-prefix-at-a-time strategy or consent"
		case re.CommonDomain != "":
			rep.Risk = RiskDomain
			rep.Advice = fmt.Sprintf("the provider would learn you visited %s; "+
				"the exact URL stays ambiguous among %d candidates",
				re.CommonDomain, len(re.Candidates))
		default:
			rep.Risk = RiskDomain
			rep.Advice = "multiple prefixes would be sent; re-identification is ambiguous " +
				"but aggregation may narrow it"
		}
		return
	}

	// No index: if the URL's own expression is among the hits, assume
	// the worst (a leaf URL re-identifies from two prefixes).
	ownHit := false
	for _, h := range rep.Hits {
		if h.Expression == canon.String() {
			ownHit = true
			break
		}
	}
	rep.CommonDomain = urlx.RegisteredDomain(canon.Host)
	if ownHit {
		rep.Risk = RiskExact
		rep.Advice = "the URL's own prefix plus related prefixes would be sent: " +
			"assume the provider can re-identify the exact URL"
	} else {
		rep.Risk = RiskDomain
		rep.Advice = fmt.Sprintf("related prefixes would be sent: assume the provider "+
			"learns the domain %s", rep.CommonDomain)
	}
}
