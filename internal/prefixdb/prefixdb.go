// Package prefixdb defines the client-side prefix database abstraction
// and a raw sorted-array reference implementation.
//
// The Safe Browsing client keeps only 32-bit prefixes of blacklisted URL
// digests locally. The choice of the backing structure is constrained by
// query time and memory footprint (paper Section 2.2.2); this package lets
// the client swap between the raw array, the Bloom filter and the
// delta-coded table while the rest of the protocol stays unchanged.
package prefixdb

import (
	"sort"
	"sync"

	"sbprivacy/internal/bloom"
	"sbprivacy/internal/deltacoded"
	"sbprivacy/internal/hashx"
)

// Store is a queryable set of 32-bit prefixes.
type Store interface {
	// Contains reports whether the prefix is (possibly) in the set.
	// Exact stores never err; Bloom-filter stores may return false
	// positives but never false negatives.
	Contains(p hashx.Prefix) bool
	// Len returns the number of stored prefixes.
	Len() int
	// SizeBytes returns the approximate memory footprint.
	SizeBytes() int
}

// Updatable is a Store that supports the protocol's add/sub updates.
type Updatable interface {
	Store
	// Apply replaces the store's contents with the update applied.
	Apply(add, remove []hashx.Prefix)
}

// Compile-time interface compliance checks.
var (
	_ Updatable = (*SortedSet)(nil)
	_ Updatable = (*DeltaStore)(nil)
	_ Store     = (*BloomStore)(nil)
)

// SortedSet is the raw baseline: a sorted uint32 array with binary search,
// 4 bytes per prefix. Safe for concurrent use.
type SortedSet struct {
	mu       sync.RWMutex
	prefixes []hashx.Prefix
}

// NewSortedSet builds a SortedSet from arbitrary prefixes.
func NewSortedSet(prefixes []hashx.Prefix) *SortedSet {
	s := &SortedSet{}
	s.Apply(prefixes, nil)
	return s
}

// Contains implements Store.
func (s *SortedSet) Contains(p hashx.Prefix) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i := sort.Search(len(s.prefixes), func(i int) bool { return s.prefixes[i] >= p })
	return i < len(s.prefixes) && s.prefixes[i] == p
}

// Len implements Store.
func (s *SortedSet) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.prefixes)
}

// SizeBytes implements Store: 4 bytes per prefix.
func (s *SortedSet) SizeBytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return 4 * len(s.prefixes)
}

// Apply implements Updatable.
func (s *SortedSet) Apply(add, remove []hashx.Prefix) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prefixes = deltacoded.MergeSorted(s.prefixes, add, remove)
}

// Snapshot returns a copy of the sorted prefixes.
func (s *SortedSet) Snapshot() []hashx.Prefix {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]hashx.Prefix, len(s.prefixes))
	copy(out, s.prefixes)
	return out
}

// DeltaStore adapts deltacoded.Table to the Store interface, rebuilding on
// every update (Chromium's strategy). Safe for concurrent use.
type DeltaStore struct {
	mu    sync.RWMutex
	table *deltacoded.Table
}

// NewDeltaStore builds a DeltaStore from arbitrary prefixes.
func NewDeltaStore(prefixes []hashx.Prefix) *DeltaStore {
	return &DeltaStore{table: deltacoded.BuildFromUnsorted(prefixes)}
}

// Contains implements Store.
func (d *DeltaStore) Contains(p hashx.Prefix) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.table.Contains(p)
}

// Len implements Store.
func (d *DeltaStore) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.table.Len()
}

// SizeBytes implements Store.
func (d *DeltaStore) SizeBytes() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.table.SizeBytes()
}

// Apply implements Updatable.
func (d *DeltaStore) Apply(add, remove []hashx.Prefix) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.table = d.table.Merge(add, remove)
}

// Snapshot returns the sorted prefixes decoded from the table.
func (d *DeltaStore) Snapshot() []hashx.Prefix {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.table.Prefixes()
}

// BloomStore adapts bloom.Filter to the Store interface. It is static:
// updates require rebuilding the filter from scratch, the very reason
// Google abandoned it (paper Section 2.2.2).
type BloomStore struct {
	mu     sync.RWMutex
	filter *bloom.Filter
}

// NewBloomStore builds a filter sized for the given prefixes at the target
// false-positive rate and inserts them all.
func NewBloomStore(prefixes []hashx.Prefix, fpRate float64) (*BloomStore, error) {
	n := len(prefixes)
	if n == 0 {
		n = 1
	}
	f, err := bloom.NewWithEstimate(n, fpRate)
	if err != nil {
		return nil, err
	}
	for _, p := range prefixes {
		f.InsertPrefix(p)
	}
	return &BloomStore{filter: f}, nil
}

// Contains implements Store (may return false positives).
func (b *BloomStore) Contains(p hashx.Prefix) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.filter.ContainsPrefix(p)
}

// Len implements Store.
func (b *BloomStore) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.filter.Len()
}

// SizeBytes implements Store.
func (b *BloomStore) SizeBytes() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.filter.SizeBytes()
}
