package mitigation

import (
	"reflect"
	"testing"

	"sbprivacy/internal/core"
	"sbprivacy/internal/hashx"
)

func TestDummyPrefixesDeterministic(t *testing.T) {
	t.Parallel()
	a := DummyPrefixes(0xe70ee6d1, 5)
	b := DummyPrefixes(0xe70ee6d1, 5)
	if !reflect.DeepEqual(a, b) {
		t.Error("dummies not deterministic")
	}
	if len(a) != 5 {
		t.Fatalf("len = %d", len(a))
	}
	c := DummyPrefixes(0x33a02ef5, 5)
	if reflect.DeepEqual(a, c) {
		t.Error("different real prefixes share dummies")
	}
	if len(DummyPrefixes(1, 0)) != 0 {
		t.Error("k=0 should produce no dummies")
	}
}

func TestAugmentRequest(t *testing.T) {
	t.Parallel()
	real := []hashx.Prefix{0xe70ee6d1, 0x33a02ef5}
	out := AugmentRequest(real, 3)
	// 2 real + up to 6 dummies, deduplicated and sorted.
	if len(out) < 4 || len(out) > 8 {
		t.Fatalf("len = %d", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i-1] >= out[i] {
			t.Fatal("output not strictly sorted")
		}
	}
	has := func(p hashx.Prefix) bool {
		for _, q := range out {
			if q == p {
				return true
			}
		}
		return false
	}
	for _, p := range real {
		if !has(p) {
			t.Errorf("real prefix %v missing", p)
		}
	}
	// Idempotent for the same input: no randomness.
	if !reflect.DeepEqual(out, AugmentRequest(real, 3)) {
		t.Error("AugmentRequest not deterministic")
	}
}

// TestAugmentRequestDummyRealCollision is the regression for the slot-
// absorption bug: when a derived dummy collides with a *different* real
// prefix of the batch, the dummy must be re-derived rather than letting
// the collision eat that real prefix's padding slot. The crafted batch
// is [p, dummy0(p)] — the second real IS the first real's 0th dummy.
func TestAugmentRequestDummyRealCollision(t *testing.T) {
	t.Parallel()
	p := hashx.Prefix(0xe70ee6d1)
	collider := DummyPrefixes(p, 1)[0] // dummy0(p), posing as a real prefix
	real := []hashx.Prefix{p, collider}

	out := AugmentRequest(real, 1)
	// Both reals, plus one collision-free dummy each: 4 distinct
	// entries. The old behaviour silently emitted 3 — the collider
	// doubled as p's only dummy.
	if len(out) != 4 {
		t.Fatalf("len = %d, want 4 (2 real + 2 collision-free dummies): %v", len(out), out)
	}
	has := func(p hashx.Prefix) bool {
		for _, q := range out {
			if q == p {
				return true
			}
		}
		return false
	}
	for _, r := range real {
		if !has(r) {
			t.Errorf("real prefix %v missing", r)
		}
	}
	// p's replacement dummy is the next derivation index (1, since
	// index 0 collided), and the collider still gets its own dummy.
	if !has(DummyPrefixes(p, 2)[1]) {
		t.Error("p's replacement dummy (derivation index 1) missing")
	}
	if !has(DummyPrefixes(collider, 1)[0]) {
		t.Error("collider's own dummy missing")
	}
	// No derived dummy equals any real prefix.
	dummies := 0
	for _, q := range out {
		if q != p && q != collider {
			dummies++
		}
	}
	if dummies != 2 {
		t.Errorf("dummy count = %d, want 2", dummies)
	}
}

// TestAugmentRequestDummyDummyCollision: when two reals' derived
// dummies collide with *each other* (found by birthday search:
// dummyPrefix(48357, 0) == dummyPrefix(44608, 0)), the deduplicated
// dummy must not consume a derivation slot — the second real re-derives
// at the next index so both reals still carry k dummies.
func TestAugmentRequestDummyDummyCollision(t *testing.T) {
	t.Parallel()
	p, q := hashx.Prefix(48357), hashx.Prefix(44608)
	if DummyPrefixes(p, 1)[0] != DummyPrefixes(q, 1)[0] {
		t.Fatal("test constants stale: expected dummy0(p) == dummy0(q)")
	}
	out := AugmentRequest([]hashx.Prefix{p, q}, 1)
	// 2 reals + the shared dummy + q's re-derived dummy (index 1) = 4.
	if len(out) != 4 {
		t.Fatalf("len = %d, want 4: %v", len(out), out)
	}
	has := func(want hashx.Prefix) bool {
		for _, got := range out {
			if got == want {
				return true
			}
		}
		return false
	}
	if !has(DummyPrefixes(q, 2)[1]) {
		t.Error("q's replacement dummy (derivation index 1) missing")
	}
}

// TestSingleKAnonymityGain: with an index-backed anonymity oracle, k
// dummies multiply the candidate set roughly (k+1)-fold.
func TestSingleKAnonymityGain(t *testing.T) {
	t.Parallel()
	idx := core.NewIndex([]string{
		"a.example/", "b.example/", "c.example/page",
	})
	real := hashx.SumPrefix("a.example/")
	before, after := SingleKAnonymityGain(real, 4, idx.KAnonymity)
	if before != 1 {
		t.Errorf("before = %d", before)
	}
	if after != before+4 { // dummies unknown to the index floor at 1 each
		t.Errorf("after = %d, want %d", after, before+4)
	}
}

// TestMultiPrefixDefeatsDummies demonstrates the paper's negative result:
// even with dummies, the provider re-identifies a multi-prefix URL
// because the real prefixes' joint presence is overwhelming evidence —
// dummies are derived per-prefix and never reproduce a correlated pair.
func TestMultiPrefixDefeatsDummies(t *testing.T) {
	t.Parallel()
	idx := core.NewIndex([]string{
		"fr.xhamster.com/user/video",
		"fr.xhamster.com/",
		"xhamster.com/",
		"other.example/",
	})
	real := []hashx.Prefix{
		hashx.SumPrefix("fr.xhamster.com/"),
		hashx.SumPrefix("xhamster.com/"),
	}
	sent := AugmentRequest(real, 5)
	re := idx.Reidentify(real)
	if re.CommonDomain != "xhamster.com" {
		t.Fatalf("sanity: %+v", re)
	}
	// The provider intersects the padded request with its index: the only
	// pair of related prefixes is the real one, so the padded query
	// re-identifies exactly like the unpadded query.
	var indexed []hashx.Prefix
	for _, p := range sent {
		if idx.KAnonymity(p) > 0 {
			indexed = append(indexed, p)
		}
	}
	rePadded := idx.Reidentify(indexed)
	if rePadded.CommonDomain != re.CommonDomain {
		t.Errorf("padding changed the inference: %+v vs %+v", rePadded, re)
	}
}
