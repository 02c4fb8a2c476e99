//sbcheck:deterministic

// Package mitigation implements the countermeasures discussed in the
// paper's Section 8:
//
//   - deterministic dummy requests, as Firefox performs against GSB: each
//     real prefix is padded with dummies derived deterministically from
//     it, so repeated queries for the same URL leak no extra signal
//     (differential analysis resistance). Dummies raise the k-anonymity
//     of a single-prefix query by the padding factor, but fail against
//     multi-prefix re-identification: the probability that two given
//     prefixes appear together as dummies is negligible.
//
//   - the one-prefix-at-a-time strategy the paper proposes: query first
//     the prefix of the root decomposition; only when the root answer is
//     inconclusive and the pre-fetched page shows Type I URLs are the
//     remaining prefixes sent, limiting the provider to domain-level
//     knowledge. When no Type I URLs exist, sending the remaining
//     prefixes would identify the exact URL, so the client asks for user
//     consent instead.
//
// Both run inside the real client: DummyPolicy and OnePrefixPolicy
// implement sbclient.QueryPolicy (sbclient.WithQueryPolicy), and
// OnePrefixPolicy.Dummies composes the two.
package mitigation

import (
	"encoding/binary"
	"sort"

	"sbprivacy/internal/hashx"
)

// DummyPrefixes derives k dummy prefixes deterministically from a real
// prefix: dummy_i = 32-bit prefix of SHA-256(prefix bytes || i). The
// same real query therefore always produces the same padding, which
// defeats intersection attacks across repeats of the same query
// (Section 8's differential-analysis requirement, after [Ved15]).
func DummyPrefixes(real hashx.Prefix, k int) []hashx.Prefix {
	out := make([]hashx.Prefix, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, dummyPrefix(real, i))
	}
	return out
}

// dummyPrefix is the i-th deterministic dummy derivation of a real
// prefix: the 32-bit prefix of SHA-256(prefix bytes || i).
func dummyPrefix(real hashx.Prefix, i int) hashx.Prefix {
	var buf [hashx.PrefixSize + 4]byte
	rb := real.Bytes()
	copy(buf[:hashx.PrefixSize], rb[:])
	binary.BigEndian.PutUint32(buf[hashx.PrefixSize:], uint32(i))
	return hashx.Sum(string(buf[:])).Prefix()
}

// AugmentRequest pads every real prefix with k dummies and returns the
// combined set, sorted and deduplicated so the wire order leaks nothing
// about which entries are real.
//
// Dummy derivation dedups against the full real set first: when a
// derived dummy collides with a *different* real prefix of the batch,
// the collision would otherwise silently absorb that real prefix's
// padding slot — the batch would carry one dummy fewer than promised,
// overstating its k-anonymity. Colliding derivations are skipped and
// the derivation counter advances until k collision-free dummies exist
// per real prefix, keeping the output deterministic for a given batch.
func AugmentRequest(real []hashx.Prefix, k int) []hashx.Prefix {
	realSet := make(map[hashx.Prefix]struct{}, len(real))
	for _, p := range real {
		realSet[p] = struct{}{}
	}
	seen := make(map[hashx.Prefix]struct{}, len(real)*(k+1))
	out := make([]hashx.Prefix, 0, len(real)*(k+1))
	add := func(p hashx.Prefix) bool {
		if _, dup := seen[p]; dup {
			return false
		}
		seen[p] = struct{}{}
		out = append(out, p)
		return true
	}
	for _, p := range real {
		add(p)
		// Derive until k distinct dummies survive both dedups: against
		// the real set AND against dummies another real already
		// contributed — either collision would otherwise shrink this
		// prefix's padding below k. Each collision consumes one
		// derivation index, and at most len(realSet)*(k+1) distinct
		// values can collide, so the bound always suffices.
		derived := 0
		for i := 0; derived < k && i <= k+len(realSet)*(k+1); i++ {
			d := dummyPrefix(p, i)
			if _, isReal := realSet[d]; isReal {
				continue
			}
			if add(d) {
				derived++
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SingleKAnonymityGain quantifies the dummy defence for a single-prefix
// query: the observer's candidate set grows from the expressions behind
// the real prefix to the union over real and dummy prefixes.
// kOf reports the anonymity-set size of one prefix (e.g. core.Index's
// KAnonymity); unknown prefixes contribute the floor of 1, since even an
// unindexed prefix names at least one plausible pre-image to the
// observer.
func SingleKAnonymityGain(real hashx.Prefix, dummies int, kOf func(hashx.Prefix) int) (before, after int) {
	floor := func(n int) int {
		if n < 1 {
			return 1
		}
		return n
	}
	before = floor(kOf(real))
	after = before
	for _, d := range DummyPrefixes(real, dummies) {
		after += floor(kOf(d))
	}
	return before, after
}
