package core

import (
	"slices"

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

// Score is Reidentify's conclusion as numbers the index assigned: what
// the tallies count. It holds no names and no pointers, and computing
// it allocates nothing. The ids mean something only to the index that
// made the Score, which is the index a report built from it must use.
type Score struct {
	// n is the number of candidate URLs (len(Candidates)).
	n int32
	// url is the exact URL's id + 1 when n == 1, else 0.
	url int32
	// domain is the common registrable domain's id + 1, else 0. An
	// exact hit always has one. Otherwise the empty domain (a URL with
	// no host) counts as none, as it does in CommonDomain.
	domain int32
}

// Score re-identifies prefixes observed together, as Reidentify does,
// and returns the conclusion as ids instead of names.
//
//sbcheck:hotpath
func (x *Index) Score(prefixes []hashx.Prefix) Score {
	var buf [16]int32 // candidate ids; on the stack unless a probe has more
	ids := x.candidates(prefixes, buf[:0])
	s := Score{n: int32(len(ids))}
	if len(ids) == 1 {
		s.url = ids[0] + 1
	}
	if d := x.commonDomain(ids); d >= 0 && (len(ids) == 1 || x.domains[d] != "") {
		s.domain = d + 1
	}
	return s
}

// Reidentify computes the candidate set for prefixes observed together.
// With no prefixes, or prefixes unknown to the index, the candidate set
// is empty.
func (x *Index) Reidentify(prefixes []hashx.Prefix) Reidentification {
	r := Reidentification{Prefixes: append([]hashx.Prefix(nil), prefixes...)}
	var buf [16]int32
	x.conclude(&r, x.candidates(prefixes, buf[:0]))
	return r
}

// seed returns the URL list of the rarest of prefixes: every candidate
// is on it. Empty when prefixes is.
func (x *Index) seed(prefixes []hashx.Prefix) []int32 {
	if len(prefixes) == 0 {
		return nil
	}
	seed := x.urlsByPrefix[prefixes[0]]
	for _, p := range prefixes[1:] {
		if cand := x.urlsByPrefix[p]; len(cand) < len(seed) {
			seed = cand
		}
	}
	return seed
}

// candidates appends to buf, in index order, the ids of the URLs whose
// decompositions produce every one of prefixes: the ambiguity set that
// Score and Reidentify both conclude from.
//
//sbcheck:hotpath
func (x *Index) candidates(prefixes []hashx.Prefix, buf []int32) []int32 {
	for _, id := range x.seed(prefixes) {
		if containsAll(x.prefixes[id], prefixes) {
			buf = append(buf, id)
		}
	}
	return buf
}

// containsAll reports whether every element of want is in have.
func containsAll(have, want []hashx.Prefix) bool {
	for _, p := range want {
		if !slices.Contains(have, p) {
			return false
		}
	}
	return true
}

// commonDomain returns the number of the registrable domain every URL
// in ids shares, or -1 when they disagree or ids is empty.
func (x *Index) commonDomain(ids []int32) int32 {
	if len(ids) == 0 {
		return -1
	}
	d := x.domainOf[ids[0]]
	for _, id := range ids[1:] {
		if x.domainOf[id] != d {
			return -1
		}
	}
	return d
}

// conclude fills in r from the ids of the candidate URLs, in index
// order. The candidate list is allocated once at its final size, and
// the domains come from the index, which numbered each when its URL was
// added: nothing is parsed and nothing grows per probe.
func (x *Index) conclude(r *Reidentification, ids []int32) {
	if len(ids) == 0 {
		return
	}
	r.Candidates = make([]string, len(ids))
	for i, id := range ids {
		r.Candidates[i] = x.urls[id]
	}
	r.Exact = len(ids) == 1
	if d := x.commonDomain(ids); d >= 0 {
		r.CommonDomain = x.domains[d]
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
	var ids []int32
	for _, id := range x.seed(prefixes) {
		hits := 0
		compatible := true
		for _, p := range x.prefixes[id] {
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
