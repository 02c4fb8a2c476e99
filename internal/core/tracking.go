package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"sbprivacy/internal/collision"
	"sbprivacy/internal/hashx"
	"sbprivacy/internal/urlx"
)

// TrackingMode reports how precisely a plan can track its target.
type TrackingMode int

// Tracking modes.
const (
	// TrackSmallSite: the whole domain has at most two decompositions;
	// all of them are planted (Algorithm 1, lines 8-10).
	TrackSmallSite TrackingMode = iota + 1
	// TrackExactURL: the target is re-identifiable exactly (leaf URL or
	// Type I colliders all planted; lines 13-20).
	TrackExactURL
	// TrackDomainOnly: too many Type I colliders; only the SLD can be
	// tracked (lines 21-22).
	TrackDomainOnly
)

// String names the mode.
func (m TrackingMode) String() string {
	switch m {
	case TrackSmallSite:
		return "small-site"
	case TrackExactURL:
		return "exact-url"
	case TrackDomainOnly:
		return "domain-only"
	default:
		return fmt.Sprintf("TrackingMode(%d)", int(m))
	}
}

// DefaultDelta is a reasonable bound on prefixes per tracked URL.
const DefaultDelta = 4

// ErrNotIndexed reports that the target's domain has no indexed URLs.
var ErrNotIndexed = errors.New("core: target domain not in index")

// TrackingPlan is the output of Algorithm 1: the prefixes the provider
// inserts into clients' local databases to track one URL.
type TrackingPlan struct {
	// Target is the canonical target expression.
	Target string
	// Domain is the registrable domain hosting it.
	Domain string
	// Mode reports the achievable precision.
	Mode TrackingMode
	// Expressions are the decomposition expressions whose prefixes are
	// planted, parallel to Prefixes.
	Expressions []string
	// Prefixes is the shadow database contribution for this target.
	Prefixes []hashx.Prefix
	// TypeIColliders are the other URLs that the plan also tracks as a
	// side effect (the links.php/faqs.php of the worked example).
	TypeIColliders []string
	// FailureProbability is (2^-32)^delta for the planted prefix count:
	// the chance an unrelated URL triggers the same combination.
	FailureProbability float64
}

// BuildTrackingPlan runs Algorithm 1 for a target URL against the
// provider's index. delta is the maximum number of prefixes the provider
// accepts to plant for this target (delta >= 2); zero means DefaultDelta.
func BuildTrackingPlan(x *Index, targetURL string, delta int) (*TrackingPlan, error) {
	if delta == 0 {
		delta = DefaultDelta
	}
	if delta < 2 {
		return nil, fmt.Errorf("core: delta must be >= 2, got %d", delta)
	}
	canon, err := urlx.Canonicalize(targetURL)
	if err != nil {
		return nil, err
	}
	link := canon.String()

	// Line 1-2: dom <- get_domain(link); urls <- get_urls(dom).
	dom := urlx.RegisteredDomain(canon.Host)
	urls := x.DomainURLs(dom)
	if len(urls) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrNotIndexed, dom)
	}

	plan := &TrackingPlan{Target: link, Domain: dom}
	addPrefix := func(expr string) {
		for _, have := range plan.Expressions {
			if have == expr {
				return
			}
		}
		plan.Expressions = append(plan.Expressions, expr)
		plan.Prefixes = append(plan.Prefixes, hashx.SumPrefix(expr))
	}

	// Lines 3-7: decomps <- union of decompositions of all domain URLs.
	decompSet := make(map[string]struct{})
	for _, u := range urls {
		for _, d := range urlx.FromExpression(u).Decompositions() {
			decompSet[d] = struct{}{}
		}
	}

	// Lines 8-10: a tiny site is fully covered by its own decompositions.
	if len(decompSet) <= 2 {
		plan.Mode = TrackSmallSite
		for d := range decompSet {
			addPrefix(d)
		}
		sortPlan(plan)
		plan.FailureProbability = failureProbability(len(plan.Prefixes))
		return plan, nil
	}

	// Lines 11-13: Type I collisions and the two common prefixes.
	hierarchy := collision.NewHierarchy(urls)
	colliders := hierarchy.TypeIColliders(link)
	domRoot := dom + "/"

	switch {
	case hierarchy.IsLeaf(link) || len(colliders) == 0:
		// Lines 14-15: two prefixes suffice for a leaf.
		plan.Mode = TrackExactURL
		addPrefix(domRoot)
		addPrefix(link)
	case len(colliders) <= delta:
		// Lines 17-20: plant the colliders too.
		plan.Mode = TrackExactURL
		addPrefix(domRoot)
		addPrefix(link)
		for _, c := range colliders {
			addPrefix(c)
		}
		plan.TypeIColliders = colliders
	default:
		// Lines 21-22: only the SLD is trackable.
		plan.Mode = TrackDomainOnly
		addPrefix(domRoot)
		addPrefix(link)
		plan.TypeIColliders = colliders
	}
	plan.FailureProbability = failureProbability(len(plan.Prefixes))
	return plan, nil
}

func failureProbability(delta int) float64 {
	return math.Pow(math.Exp2(-32), float64(delta))
}

func sortPlan(plan *TrackingPlan) {
	// Keep target first if present, then lexicographic: deterministic
	// output for the small-site map iteration.
	for i, e := range plan.Expressions {
		if e == plan.Target && i != 0 {
			plan.Expressions[0], plan.Expressions[i] = plan.Expressions[i], plan.Expressions[0]
			plan.Prefixes[0], plan.Prefixes[i] = plan.Prefixes[i], plan.Prefixes[0]
		}
	}
	if len(plan.Expressions) > 1 {
		rest := plan.Expressions[1:]
		restP := plan.Prefixes[1:]
		for i := 0; i < len(rest); i++ {
			for j := i + 1; j < len(rest); j++ {
				if rest[j] < rest[i] {
					rest[i], rest[j] = rest[j], rest[i]
					restP[i], restP[j] = restP[j], restP[i]
				}
			}
		}
	}
}

// Certainty grades a tracking event.
type Certainty int

// Certainty levels.
const (
	// CertaintyDomain: the client visited some URL on the target domain.
	CertaintyDomain Certainty = iota + 1
	// CertaintyCollider: the client visited a known Type I collider of
	// the target.
	CertaintyCollider
	// CertaintyExact: the client visited the target URL itself.
	CertaintyExact
)

// String names the certainty level.
func (c Certainty) String() string {
	switch c {
	case CertaintyDomain:
		return "domain"
	case CertaintyCollider:
		return "collider"
	case CertaintyExact:
		return "exact"
	default:
		return "unknown"
	}
}

// Event is one tracking observation: a client (identified by its Safe
// Browsing cookie) matched a plan.
type Event struct {
	Time time.Time
	// ClientID is the Safe Browsing cookie of Section 2.2.3.
	ClientID string
	// Target is the plan's target URL.
	Target string
	// URL is the most specific URL the observation supports.
	URL string
	// Certainty grades the match.
	Certainty Certainty
	// MatchedPrefixes are the plan prefixes present in the probe.
	MatchedPrefixes []hashx.Prefix
}
