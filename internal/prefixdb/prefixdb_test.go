package prefixdb

import (
	"math/rand"
	"sync"
	"testing"

	"sbprivacy/internal/hashx"
)

func randomPrefixes(n int, seed int64) []hashx.Prefix {
	rng := rand.New(rand.NewSource(seed))
	out := make([]hashx.Prefix, n)
	for i := range out {
		out[i] = hashx.Prefix(rng.Uint32())
	}
	return out
}

// TestStoresAgree: the delta-coded store answers membership exactly as
// the set of prefixes it was built from.
func TestStoresAgree(t *testing.T) {
	t.Parallel()
	prefixes := randomPrefixes(20000, 11)
	delta := NewDeltaStore(prefixes)
	ref := make(map[hashx.Prefix]struct{}, len(prefixes))
	for _, p := range prefixes {
		ref[p] = struct{}{}
	}

	if delta.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", delta.Len(), len(ref))
	}
	for _, p := range prefixes {
		if !delta.Contains(p) {
			t.Fatalf("member %v missing", p)
		}
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 50000; i++ {
		p := hashx.Prefix(rng.Uint32())
		if _, want := ref[p]; delta.Contains(p) != want {
			t.Fatalf("Contains(%v) = %v, want %v", p, !want, want)
		}
	}
}

func TestDeltaStoreApply(t *testing.T) {
	t.Parallel()
	d := NewDeltaStore([]hashx.Prefix{10, 20})
	d.Apply([]hashx.Prefix{30}, []hashx.Prefix{10})
	if d.Contains(10) {
		t.Error("removed prefix still present")
	}
	if !d.Contains(20) || !d.Contains(30) {
		t.Error("expected members missing")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	// Duplicate adds collapse.
	d.Apply([]hashx.Prefix{30, 30, 30}, nil)
	if d.Len() != 2 {
		t.Errorf("Len after dup add = %d, want 2", d.Len())
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	t.Parallel()
	s := NewDeltaStore([]hashx.Prefix{5, 1, 3})
	snap := s.Snapshot()
	want := []hashx.Prefix{1, 3, 5}
	for i := range want {
		if snap[i] != want[i] {
			t.Fatalf("Snapshot = %v, want %v", snap, want)
		}
	}
	snap[0] = 99
	if !s.Contains(1) || s.Contains(99) {
		t.Error("mutating snapshot affected the store")
	}
}

// TestSizeOrdering reproduces the Table 2 size relationship at 32-bit
// prefixes: delta-coded < raw sorted array (4 bytes per prefix).
func TestSizeOrdering(t *testing.T) {
	t.Parallel()
	delta := NewDeltaStore(randomPrefixes(100000, 13))
	if raw := 4 * delta.Len(); delta.SizeBytes() >= raw {
		t.Errorf("delta-coded (%d) not smaller than raw (%d)", delta.SizeBytes(), raw)
	}
}

// TestConcurrentAccess exercises the store under concurrent reads and
// writes with the race detector in mind.
func TestConcurrentAccess(t *testing.T) {
	t.Parallel()
	s := NewDeltaStore(randomPrefixes(1000, 14))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				s.Contains(hashx.Prefix(rng.Uint32()))
			}
		}(int64(w))
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + 50))
			for i := 0; i < 20; i++ {
				s.Apply([]hashx.Prefix{hashx.Prefix(rng.Uint32())}, nil)
			}
		}(int64(w))
	}
	wg.Wait()
}

func TestEmptyStores(t *testing.T) {
	t.Parallel()
	d := NewDeltaStore(nil)
	if d.Contains(1234) {
		t.Error("empty store claims membership")
	}
	if d.Len() != 0 || len(d.Snapshot()) != 0 {
		t.Errorf("Len = %d, Snapshot = %v, want empty", d.Len(), d.Snapshot())
	}
}
