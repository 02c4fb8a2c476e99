// Package collision implements the collision taxonomy of the paper's
// Section 6.1: when a Safe Browsing server receives multiple prefixes for
// one URL, which other URLs could have produced the same prefixes?
//
//   - Type I: a related URL shares the decompositions themselves (string
//     equality), so the shared prefixes are identical by construction.
//   - Type II: a related URL shares one decomposition; the remaining
//     prefix agreement comes from a truncated-digest collision.
//   - Type III: an unrelated URL matches every prefix purely through
//     truncated-digest collisions (probability 2^-32 per prefix).
//
// The package also builds the per-domain URL hierarchy of Figure 4 and
// classifies URLs as leaves (re-identifiable from two prefixes) or
// non-leaves (ambiguous, requiring more prefixes).
package collision

import (
	"fmt"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/urlx"
)

// Type classifies how a candidate URL can reproduce a target's prefixes.
type Type int

// Collision types, in decreasing probability order:
// P[Type I] > P[Type II] > P[Type III].
const (
	// None: the candidate cannot produce all target prefixes.
	None Type = iota
	// TypeI: all shared prefixes arise from shared decomposition strings.
	TypeI
	// TypeII: at least one shared decomposition, the rest via digest
	// collisions.
	TypeII
	// TypeIII: no shared decompositions; all agreement is digest
	// collisions.
	TypeIII
)

// String names the collision type.
func (t Type) String() string {
	switch t {
	case None:
		return "none"
	case TypeI:
		return "Type I"
	case TypeII:
		return "Type II"
	case TypeIII:
		return "Type III"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Classify determines whether candidateDecomps can produce every prefix
// in targetPrefixes and, if so, which collision type that is with respect
// to targetDecomps (the decomposition set of the URL actually visited).
func Classify(targetPrefixes []hashx.Prefix, targetDecomps, candidateDecomps []string) Type {
	if len(targetPrefixes) == 0 {
		return None
	}
	targetSet := make(map[string]struct{}, len(targetDecomps))
	for _, d := range targetDecomps {
		targetSet[d] = struct{}{}
	}

	shared := 0
	hashOnly := 0
	for _, p := range targetPrefixes {
		coveredByShared := false
		coveredByHash := false
		for _, d := range candidateDecomps {
			if hashx.SumPrefix(d) != p {
				continue
			}
			if _, isShared := targetSet[d]; isShared {
				coveredByShared = true
				break
			}
			coveredByHash = true
		}
		switch {
		case coveredByShared:
			shared++
		case coveredByHash:
			hashOnly++
		default:
			return None
		}
	}
	switch {
	case hashOnly == 0:
		return TypeI
	case shared > 0:
		return TypeII
	default:
		return TypeIII
	}
}

// Hierarchy indexes the URLs of one domain (Figure 4): which URLs are
// decompositions of which, who is a leaf, and who collides with whom.
type Hierarchy struct {
	urls []string
	// decompsOf caches each URL's decomposition expressions.
	decompsOf map[string][]string
	// containedBy maps expression e to the URLs whose decompositions
	// include e (excluding e itself).
	containedBy map[string][]string
	urlSet      map[string]struct{}
}

// NewHierarchy builds the hierarchy for the URLs of one domain. URLs must
// be canonical decomposition-format expressions ("host/path?query").
func NewHierarchy(urls []string) *Hierarchy {
	h := &Hierarchy{
		urls:        append([]string(nil), urls...),
		decompsOf:   make(map[string][]string, len(urls)),
		containedBy: make(map[string][]string, len(urls)*2),
		urlSet:      make(map[string]struct{}, len(urls)),
	}
	for _, u := range h.urls {
		h.urlSet[u] = struct{}{}
	}
	for _, u := range h.urls {
		decomps := urlx.FromExpression(u).Decompositions()
		h.decompsOf[u] = decomps
		for _, d := range decomps {
			if d != u {
				h.containedBy[d] = append(h.containedBy[d], u)
			}
		}
	}
	return h
}

// URLs returns the indexed URLs.
func (h *Hierarchy) URLs() []string {
	return append([]string(nil), h.urls...)
}

// Decompositions returns the cached decompositions of an indexed URL, or
// computes them for a foreign expression.
func (h *Hierarchy) Decompositions(url string) []string {
	if d, ok := h.decompsOf[url]; ok {
		return d
	}
	return urlx.FromExpression(url).Decompositions()
}

// IsLeaf reports whether the URL is a leaf of the domain hierarchy: not a
// decomposition of any other indexed URL. Leaves are re-identifiable from
// just two prefixes (Section 6.1).
func (h *Hierarchy) IsLeaf(url string) bool {
	return len(h.containedBy[url]) == 0
}

// TypeIColliders returns the other indexed URLs whose decompositions
// include this URL — the Type I collision set that Algorithm 1's
// get_type1_coll computes.
func (h *Hierarchy) TypeIColliders(url string) []string {
	return append([]string(nil), h.containedBy[url]...)
}

// TotalTypeIPairs counts all (u, u') pairs with u a decomposition of u'.
func (h *Hierarchy) TotalTypeIPairs() int {
	total := 0
	for _, u := range h.urls {
		total += len(h.containedBy[u])
	}
	return total
}

// Leaves returns all leaf URLs.
func (h *Hierarchy) Leaves() []string {
	var out []string
	for _, u := range h.urls {
		if h.IsLeaf(u) {
			out = append(out, u)
		}
	}
	return out
}
