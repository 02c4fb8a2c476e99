package core

import (
	"sbprivacy/internal/hashx"
	"sbprivacy/internal/urlx"
)

// Reidentification is the provider's conclusion from a set of prefixes
// received together (one full-hash request, or an aggregate).
type Reidentification struct {
	// Prefixes are the observed prefixes.
	Prefixes []hashx.Prefix
	// Candidates are the indexed URLs whose decompositions produce every
	// observed prefix, the ambiguity set of Section 6.1.
	Candidates []string
	// Exact is true when exactly one candidate remains: the URL is
	// re-identified.
	Exact bool
	// CommonDomain is the registrable domain shared by all candidates,
	// or "" if they disagree. Even when Exact is false, a common domain
	// re-identifies the site ("the SB provider can still determine the
	// common sub-domain visited by the client using only 2 prefixes").
	CommonDomain string
}

// Reidentify computes the candidate set for prefixes observed together.
// With no prefixes, or prefixes unknown to the index, the candidate set
// is empty.
func (x *Index) Reidentify(prefixes []hashx.Prefix) Reidentification {
	r := Reidentification{Prefixes: append([]hashx.Prefix(nil), prefixes...)}
	if len(prefixes) == 0 {
		return r
	}
	// Start from the rarest prefix's URL list and filter.
	seed := x.urlsByPrefix[prefixes[0]]
	for _, p := range prefixes[1:] {
		if cand := x.urlsByPrefix[p]; len(cand) < len(seed) {
			seed = cand
		}
	}
	var buf [16]int32 // candidate ids; on the stack unless a probe has more
	ids := buf[:0]
	for _, id := range seed {
		pset := x.prefixSet[id]
		all := true
		for _, p := range prefixes {
			if _, ok := pset[p]; !ok {
				all = false
				break
			}
		}
		if all {
			ids = append(ids, id)
		}
	}
	x.conclude(&r, ids)
	return r
}

// conclude fills in r from the ids of the candidate URLs, in index
// order. The candidate list is allocated once at its final size, and
// the domains come from the index, which derived each when its URL was
// added: nothing is parsed and nothing grows per probe.
func (x *Index) conclude(r *Reidentification, ids []int32) {
	if len(ids) == 0 {
		return
	}
	r.Candidates = make([]string, len(ids))
	r.Exact = len(ids) == 1
	r.CommonDomain = x.domains[ids[0]]
	for i, id := range ids {
		r.Candidates[i] = x.urls[id]
		if x.domains[id] != r.CommonDomain {
			r.CommonDomain = "" // "no common domain", and it stays: "" matches no domain but itself
		}
	}
}

// ReidentifyWithDatabase refines Reidentify when the provider knows the
// exact contents of the client's prefix database (it chose them): the
// client sends every local hit at once, so a candidate URL must produce
// exactly the observed prefix set against that database — the reasoning
// behind the Case 1/2/3 disambiguation of Section 6.1 ("if the client
// visits a.b.c/1 then prefixes A, C and D will be sent, while if the
// client visits b.c/1, then only C and D").
func (x *Index) ReidentifyWithDatabase(prefixes []hashx.Prefix, database map[hashx.Prefix]struct{}) Reidentification {
	r := Reidentification{Prefixes: append([]hashx.Prefix(nil), prefixes...)}
	if len(prefixes) == 0 {
		return r
	}
	observed := make(map[hashx.Prefix]struct{}, len(prefixes))
	for _, p := range prefixes {
		observed[p] = struct{}{}
	}
	seed := x.urlsByPrefix[prefixes[0]]
	for _, p := range prefixes[1:] {
		if cand := x.urlsByPrefix[p]; len(cand) < len(seed) {
			seed = cand
		}
	}
	var ids []int32
	for _, id := range seed {
		hits := 0
		compatible := true
		for p := range x.prefixSet[id] {
			if _, inDB := database[p]; !inDB {
				continue
			}
			if _, inObs := observed[p]; !inObs {
				compatible = false // this URL would have sent an extra prefix
				break
			}
			hits++
		}
		if compatible && hits == len(observed) {
			ids = append(ids, id)
		}
	}
	x.conclude(&r, ids)
	return r
}

// CaseAnalysis reproduces the three cases of Section 6.1 (Table 7): for a
// target URL whose decompositions are partially blacklisted, which
// prefix subsets re-identify it?
type CaseAnalysis struct {
	// Target is the visited URL expression.
	Target string
	// Received are the prefixes the server would receive.
	Received []hashx.Prefix
	// Candidates are the index URLs compatible with the received set.
	Candidates []string
	// Resolved is true when the target is the unique candidate.
	Resolved bool
}

// AnalyzeVisit simulates a client visiting target with the given
// blacklisted prefixes in its local database: the server receives the
// intersection of the target's decomposition prefixes with the database,
// then re-identifies with exact-hit-set reasoning.
func (x *Index) AnalyzeVisit(target string, database map[hashx.Prefix]struct{}) CaseAnalysis {
	ca := CaseAnalysis{Target: target}
	for _, d := range urlx.FromExpression(target).Decompositions() {
		p := hashx.SumPrefix(d)
		if _, hit := database[p]; hit {
			ca.Received = append(ca.Received, p)
		}
	}
	re := x.ReidentifyWithDatabase(ca.Received, database)
	ca.Candidates = re.Candidates
	ca.Resolved = re.Exact && len(re.Candidates) == 1 && re.Candidates[0] == target
	return ca
}
