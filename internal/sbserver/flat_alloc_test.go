package sbserver

import (
	"testing"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/wire"
)

// TestPrefixTableLookupAllocs is the runtime half of the hotalloc gate
// on the flat serving index: with a caller-provided dst of sufficient
// capacity, a flat-index lookup must not allocate at all.
// The //sbcheck:hotpath markers on stripe/lookup (and on the
// prefixtable Find/Cursor path underneath) keep allocation-causing
// constructs out statically; this test proves the resulting count.
// Gate: 0 allocs/op on both the hit and miss paths (the measured count
// at the time the gate landed — it must never grow).
func TestPrefixTableLookupAllocs(t *testing.T) {
	x := newFlatIndex()
	hit := hashx.Sum("evil.example/")
	miss := hashx.Sum("clean.example/")
	for i := 0; i < 4; i++ {
		d := hit
		d[31] ^= byte(i)
		x.add(hit.Prefix(), indexEntry{rank: uint32(i), list: "goog-malware-shavar", digest: d})
	}
	// Force a stripe deep enough to have grown at least once, so the
	// gate also covers the probe loop over a resized generation.
	deep := x.stripe(hit.Prefix())
	for i := 0; i < 512; i++ {
		p := hit.Prefix() + hashx.Prefix(numShards*(i+1))
		if x.stripe(p) != deep {
			t.Fatalf("stripe stride broken at %d", i)
		}
		d := hashx.Sum("filler.example/")
		x.add(p, indexEntry{rank: 0, list: "goog-malware-shavar", digest: d})
	}

	dst := make([]wire.FullHashEntry, 0, 16)
	for name, p := range map[string]hashx.Prefix{
		"hit":  hit.Prefix(),
		"miss": miss.Prefix(),
	} {
		p := p
		allocs := testing.AllocsPerRun(1000, func() {
			dst = x.lookup(p, dst[:0])
		})
		if allocs != 0 {
			t.Errorf("lookup(%s): %v allocs/op, want 0", name, allocs)
		}
	}
	if dst = x.lookup(hit.Prefix(), dst[:0]); len(dst) != 4 {
		t.Fatalf("lookup returned %d entries, want 4", len(dst))
	}
}

// TestShardLookupAllocs extends the same gate across every stripe of
// the serving index: with one entry planted in each of the numShards
// stripes, a hit and a miss routed to each stripe must not allocate.
// TestPrefixTableLookupAllocs pins one stripe through growth; this one
// pins stripe selection and the per-stripe lock path everywhere.
// Gate: 0 allocs/op.
func TestShardLookupAllocs(t *testing.T) {
	x := newFlatIndex()
	base := hashx.Sum("evil.example/").Prefix() &^ hashx.Prefix(numShards-1)
	d := hashx.Sum("evil.example/")
	for i := 0; i < numShards; i++ {
		p := base + hashx.Prefix(i)
		x.add(p, indexEntry{rank: uint32(i), list: "goog-malware-shavar", digest: d})
	}

	dst := make([]wire.FullHashEntry, 0, 16)
	for i := 0; i < numShards; i++ {
		hit := base + hashx.Prefix(i)
		miss := hit + hashx.Prefix(numShards)
		if x.stripe(hit) != &x.stripes[i] || x.stripe(miss) != &x.stripes[i] {
			t.Fatalf("prefix %08x not routed to stripe %d", uint32(hit), i)
		}
		allocs := testing.AllocsPerRun(100, func() {
			dst = x.lookup(hit, dst[:0])
			dst = x.lookup(miss, dst)
		})
		if allocs != 0 {
			t.Errorf("stripe %d: lookup %v allocs/op, want 0", i, allocs)
		}
		if dst = x.lookup(hit, dst[:0]); len(dst) != 1 || dst[0].Digest != d {
			t.Fatalf("stripe %d: hit returned %v, want one entry", i, dst)
		}
		if dst = x.lookup(miss, dst[:0]); len(dst) != 0 {
			t.Fatalf("stripe %d: miss returned %d entries, want 0", i, len(dst))
		}
	}
}
