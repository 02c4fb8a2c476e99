package prefixtable

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"sbprivacy/internal/hashx"
)

// testDigest derives a distinct digest deterministically from (p, tag).
func testDigest(p hashx.Prefix, tag byte) hashx.Digest {
	var d hashx.Digest
	b := p.Bytes()
	copy(d[:4], b[:])
	d[4] = tag
	d[31] = ^tag
	return d
}

// collect drains a cursor into (rank, list, digest) tuples.
type tuple struct {
	rank   uint32
	list   string
	digest hashx.Digest
}

func collect(t *Table, p hashx.Prefix) []tuple {
	var out []tuple
	for c := t.Find(p); c.Next(); {
		r, l, d := c.Entry()
		out = append(out, tuple{r, l, d})
	}
	return out
}

func TestZeroTable(t *testing.T) {
	var tab Table
	if tab.Len() != 0 || tab.Contains(42) {
		t.Fatal("zero table is not empty")
	}
	if got := collect(&tab, 42); got != nil {
		t.Fatalf("zero table Find returned %v", got)
	}
	tab.Remove(42, 0, testDigest(42, 0)) // no-op, must not panic
	tab.Add(42, 0, "l", testDigest(42, 0))
	if tab.Len() != 1 || !tab.Contains(42) {
		t.Fatal("add on zero table failed")
	}
}

func TestRankOrdering(t *testing.T) {
	tab := New(8)
	p := hashx.Prefix(0xe70ee6d1)
	// Insert ranks out of order, with two entries sharing rank 1: the
	// cursor must yield ascending ranks, insertion order within a rank.
	tab.Add(p, 2, "c", testDigest(p, 2))
	tab.Add(p, 0, "a", testDigest(p, 0))
	tab.Add(p, 1, "b", testDigest(p, 10))
	tab.Add(p, 1, "b", testDigest(p, 11))
	got := collect(tab, p)
	want := []tuple{
		{0, "a", testDigest(p, 0)},
		{1, "b", testDigest(p, 10)},
		{1, "b", testDigest(p, 11)},
		{2, "c", testDigest(p, 2)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v\nwant %v", got, want)
	}
}

func TestRemoveSemantics(t *testing.T) {
	tab := New(8)
	p := hashx.Prefix(7)
	d0, d1 := testDigest(p, 0), testDigest(p, 1)
	tab.Add(p, 0, "l", d0)
	tab.Add(p, 0, "l", d1)
	tab.Add(p, 1, "m", d0)

	tab.Remove(p, 0, testDigest(p, 99)) // absent digest: no-op
	tab.Remove(p, 9, d0)                // absent rank: no-op
	if len(collect(tab, p)) != 3 {
		t.Fatal("remove of absent entry mutated the chain")
	}

	tab.Remove(p, 0, d0) // head removal
	got := collect(tab, p)
	want := []tuple{{0, "l", d1}, {1, "m", d0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after head removal: %v", got)
	}

	tab.Remove(p, 1, d0) // tail removal
	tab.Remove(p, 0, d1) // chain empties: prefix dies
	if tab.Contains(p) || tab.Len() != 0 {
		t.Fatal("prefix survived emptying its chain")
	}
	if n := liveEntries(tab); n != 0 {
		t.Fatalf("%d live entries after removing everything", n)
	}
	// Freed entries are recycled, not leaked.
	before := cap(tab.entries)
	for i := 0; i < 10; i++ {
		tab.Add(p, 0, "l", d0)
		tab.Remove(p, 0, d0)
	}
	if cap(tab.entries) != before {
		t.Fatalf("side array grew %d -> %d across add/remove cycles", before, cap(tab.entries))
	}
}

// TestGrowthAndMigration drives a single table through several
// growths and verifies every prefix stays findable with its full chain
// at every step, each rehash moving every slot to its new array.
func TestGrowthAndMigration(t *testing.T) {
	var tab Table // start at minimum capacity to force many growths
	const n = 10000
	for i := 0; i < n; i++ {
		p := hashx.Prefix(uint32(i) * 2654435761) // well-spread keys
		tab.Add(p, 0, "l", testDigest(p, 0))
		if i%97 == 0 {
			// Spot-check an older prefix.
			q := hashx.Prefix(uint32(i/2) * 2654435761)
			if !tab.Contains(q) {
				t.Fatalf("prefix %v lost after %d adds (capacity %d)", q, i+1, len(tab.ctrl))
			}
		}
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d, want %d", tab.Len(), n)
	}
	if len(tab.ctrl) == minCap {
		t.Fatal("expected at least one growth from minimum capacity")
	}
	for i := 0; i < n; i++ {
		p := hashx.Prefix(uint32(i) * 2654435761)
		got := collect(&tab, p)
		if len(got) != 1 || got[0].digest != testDigest(p, 0) {
			t.Fatalf("prefix %v: got %v", p, got)
		}
	}
	// Misses must stay misses.
	for i := 0; i < 1000; i++ {
		p := hashx.Prefix(uint32(n+i)*2654435761 + 1)
		if tab.Contains(p) {
			t.Fatalf("false positive on %v", p)
		}
	}
}

// TestRemoveHeavyRehash floods the table with tombstones and checks the
// same-size rehash reclaims them instead of doubling forever.
func TestRemoveHeavyRehash(t *testing.T) {
	var tab Table
	const n = 4096
	for i := 0; i < n; i++ {
		p := hashx.Prefix(i)
		tab.Add(p, 0, "l", testDigest(p, 0))
	}
	for i := 0; i < n; i++ {
		p := hashx.Prefix(i)
		tab.Remove(p, 0, testDigest(p, 0))
	}
	// Re-add a fresh generation of keys; capacity must not balloon.
	for i := 0; i < n; i++ {
		p := hashx.Prefix(n + i)
		tab.Add(p, 0, "l", testDigest(p, 0))
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d, want %d", tab.Len(), n)
	}
	if len(tab.ctrl) > 4*n*maxLoadDen/maxLoadNum {
		t.Fatalf("capacity %d ballooned after remove-heavy churn (n=%d)", len(tab.ctrl), n)
	}
}

// TestModelEquivalence runs a seeded randomized add/remove/lookup
// sequence against a reference map model, with a deliberately small
// prefix universe so chains, collisions, duplicate adds and
// remove-of-absent all occur. Add's first-of-rank and Remove's
// last-of-rank answers must match the model's.
func TestModelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var tab Table
	model := map[hashx.Prefix][]tuple{}

	prefixes := make([]hashx.Prefix, 64)
	for i := range prefixes {
		// Half sequential (clustering), half spread.
		if i%2 == 0 {
			prefixes[i] = hashx.Prefix(i)
		} else {
			prefixes[i] = hashx.Prefix(uint32(i) * 2654435761)
		}
	}
	lists := []string{"goog-malware-shavar", "goog-phish-shavar", "ydx-porno-shavar"}

	// rankCount is the number of p's model entries of rank.
	rankCount := func(p hashx.Prefix, rank uint32) int {
		n := 0
		for _, e := range model[p] {
			if e.rank == rank {
				n++
			}
		}
		return n
	}
	// modelAdd skips a (rank, digest) p holds already and reports
	// whether p gained its first entry of the rank.
	modelAdd := func(p hashx.Prefix, e tuple) bool {
		entries := model[p]
		if slices.ContainsFunc(entries, func(x tuple) bool { return x.rank == e.rank && x.digest == e.digest }) {
			return false
		}
		first := rankCount(p, e.rank) == 0
		i := len(entries)
		for i > 0 && entries[i-1].rank > e.rank {
			i--
		}
		model[p] = slices.Insert(entries, i, e)
		return first
	}
	// modelRemove reports whether it took p's last entry of the rank.
	modelRemove := func(p hashx.Prefix, rank uint32, d hashx.Digest) bool {
		entries := model[p]
		i := slices.IndexFunc(entries, func(x tuple) bool { return x.rank == rank && x.digest == d })
		if i < 0 {
			return false
		}
		entries = slices.Delete(entries, i, i+1)
		if len(entries) == 0 {
			delete(model, p)
		} else {
			model[p] = entries
		}
		return rankCount(p, rank) == 0
	}

	for step := 0; step < 20000; step++ {
		p := prefixes[rng.Intn(len(prefixes))]
		rank := uint32(rng.Intn(3))
		d := testDigest(p, byte(rng.Intn(6)))
		if rng.Intn(3) > 0 {
			got := tab.Add(p, rank, lists[rank], d)
			if want := modelAdd(p, tuple{rank, lists[rank], d}); got != want {
				t.Fatalf("step %d: Add(%v, %d) first = %v, model %v", step, p, rank, got, want)
			}
		} else {
			got := tab.Remove(p, rank, d)
			if want := modelRemove(p, rank, d); got != want {
				t.Fatalf("step %d: Remove(%v, %d) last = %v, model %v", step, p, rank, got, want)
			}
		}
		q := prefixes[rng.Intn(len(prefixes))]
		got := collect(&tab, q)
		want := model[q]
		if !reflect.DeepEqual(got, want) && !(got == nil && len(want) == 0) {
			t.Fatalf("step %d prefix %v:\n got %v\nwant %v", step, q, got, want)
		}
	}
	if tab.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", tab.Len(), len(model))
	}
	live := 0
	for p, want := range model {
		live += len(want)
		if got := collect(&tab, p); !reflect.DeepEqual(got, want) {
			t.Fatalf("final prefix %v:\n got %v\nwant %v", p, got, want)
		}
	}
	if n := liveEntries(&tab); n != live {
		t.Fatalf("%d live entries, model has %d", n, live)
	}
}

// liveEntries counts the side-array entries not on the free list.
func liveEntries(t *Table) int {
	n := len(t.entries)
	for at := t.free - 1; at >= 0; at = t.entries[at].next {
		n--
	}
	return n
}

// TestNewPresized verifies a hint-sized table absorbs its hint without
// growing.
func TestNewPresized(t *testing.T) {
	const n = 100000
	tab := New(n)
	capacity := len(tab.ctrl)
	for i := 0; i < n; i++ {
		p := hashx.Prefix(uint32(i) * 2654435761)
		tab.Add(p, 0, "l", testDigest(p, 0))
	}
	if len(tab.ctrl) != capacity {
		t.Fatalf("pre-sized table grew from %d to %d slots", capacity, len(tab.ctrl))
	}
}

func TestFindAllocs(t *testing.T) {
	tab := New(1024)
	hit := hashx.SumPrefix("evil.example/")
	for i := 0; i < 4; i++ {
		tab.Add(hit, uint32(i), "goog-malware-shavar", testDigest(hit, byte(i)))
	}
	miss := hashx.SumPrefix("clean.example/")
	sink := 0
	allocs := testing.AllocsPerRun(1000, func() {
		for c := tab.Find(hit); c.Next(); {
			r, _, _ := c.Entry()
			sink += int(r)
		}
		if tab.Contains(miss) {
			sink++
		}
	})
	if allocs != 0 {
		t.Fatalf("Find/Next/Entry: %v allocs/op, want 0", allocs)
	}
}

// TestMixAvalanche sanity-checks the xxhash finalizer: sequential keys
// must spread across slots rather than cluster.
func TestMixAvalanche(t *testing.T) {
	const buckets = 256
	var counts [buckets]int
	const n = 1 << 16
	for i := uint32(0); i < n; i++ {
		counts[mix(i)%buckets]++
	}
	mean := float64(n) / buckets
	for b, c := range counts {
		if float64(c) < mean/2 || float64(c) > mean*2 {
			t.Fatalf("bucket %d holds %d of %d (mean %.0f): mixing is not uniform", b, c, n, mean)
		}
	}
}

func TestSizeBytesAndStats(t *testing.T) {
	tab := New(1000)
	for i := 0; i < 1000; i++ {
		p := hashx.Prefix(uint32(i) * 2654435761)
		tab.Add(p, 0, "l", testDigest(p, 0))
	}
	// An entry is a 32-byte digest, a rank and a link: 40 bytes.
	if got, want := tab.SizeBytes(), 9*len(tab.ctrl)+40*cap(tab.entries); got != want {
		t.Fatalf("SizeBytes = %d, want 9·%d slots + 40·%d entries = %d", got, len(tab.ctrl), cap(tab.entries), want)
	}
	if tab.Len() != 1000 || liveEntries(tab) != 1000 || len(tab.ctrl) == 0 {
		t.Fatalf("Len = %d, live entries = %d, capacity = %d", tab.Len(), liveEntries(tab), len(tab.ctrl))
	}
	// Sorted decode sanity: Contains agrees with a reference set.
	ref := map[hashx.Prefix]bool{}
	for i := 0; i < 1000; i++ {
		ref[hashx.Prefix(uint32(i)*2654435761)] = true
	}
	keys := make([]int, 0, len(ref))
	for p := range ref {
		keys = append(keys, int(p))
	}
	sort.Ints(keys)
	for _, k := range keys {
		if !tab.Contains(hashx.Prefix(k)) {
			t.Fatalf("lost %v", hashx.Prefix(k))
		}
	}
}

// TestAppendPrefixes holds AppendPrefixes to a per-rank model while the
// table grows: a prefix is listed for a rank exactly when it has an
// entry of that rank, and a removal of its last such entry takes it
// out.
func TestAppendPrefixes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tab Table
	model := [3]map[hashx.Prefix][]hashx.Digest{{}, {}, {}}
	for step := 0; step < 6000; step++ {
		p := hashx.Prefix(uint32(rng.Intn(2000)) * 2654435761)
		rank := uint32(rng.Intn(3))
		d := testDigest(p, byte(rng.Intn(2)))
		if rng.Intn(4) > 0 {
			tab.Add(p, rank, "l", d)
			if !slices.Contains(model[rank][p], d) {
				model[rank][p] = append(model[rank][p], d)
			}
		} else {
			tab.Remove(p, rank, d)
			if i := slices.Index(model[rank][p], d); i >= 0 {
				model[rank][p] = slices.Delete(model[rank][p], i, i+1)
			}
			if len(model[rank][p]) == 0 {
				delete(model[rank], p)
			}
		}
		if step%100 != 99 {
			continue
		}
		for rank, m := range model {
			got := tab.AppendPrefixes(nil, uint32(rank))
			slices.Sort(got)
			want := make([]hashx.Prefix, 0, len(m))
			for p := range m {
				want = append(want, p)
			}
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d rank %d: AppendPrefixes has %d prefixes, model %d", step, rank, len(got), len(want))
			}
		}
	}
	if len(tab.ctrl) == minCap {
		t.Fatal("the table never grew")
	}
}
