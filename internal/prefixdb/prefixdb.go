// Package prefixdb holds the client-side prefix database: the
// delta-coded table of the paper's Section 2.2.2 behind the Updatable
// interface the client syncs through.
//
// The Safe Browsing client keeps only 32-bit prefixes of blacklisted URL
// digests locally. Google's client moved from a Bloom filter to the
// delta-coded table because the filter cannot be updated in place and
// the table is smaller than the raw sorted array (Table 2); the
// reproduction of that comparison builds the three structures directly
// (internal/exp's table2).
package prefixdb

import (
	"sync"

	"sbprivacy/internal/deltacoded"
	"sbprivacy/internal/hashx"
)

// Updatable is the client's prefix store: a set of 32-bit prefixes that
// supports the protocol's add/sub updates.
type Updatable interface {
	// Contains reports whether the prefix is in the set.
	Contains(p hashx.Prefix) bool
	// Len returns the number of stored prefixes.
	Len() int
	// SizeBytes returns the approximate memory footprint.
	SizeBytes() int
	// Apply replaces the store's contents with the update applied.
	Apply(add, remove []hashx.Prefix)
	// Snapshot returns the stored prefixes in ascending order, in a
	// slice the caller owns.
	Snapshot() []hashx.Prefix
}

// DeltaStore is the Updatable over a deltacoded.Table, rebuilt on every
// update (Chromium's strategy): about 2 bytes per prefix at Table 2's
// size against the raw array's 4. Safe for concurrent use.
type DeltaStore struct {
	mu    sync.RWMutex
	table *deltacoded.Table
}

// NewDeltaStore builds a DeltaStore from arbitrary prefixes.
func NewDeltaStore(prefixes []hashx.Prefix) *DeltaStore {
	return &DeltaStore{table: deltacoded.BuildFromUnsorted(prefixes)}
}

// Contains implements Updatable.
func (d *DeltaStore) Contains(p hashx.Prefix) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.table.Contains(p)
}

// Len implements Updatable.
func (d *DeltaStore) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.table.Len()
}

// SizeBytes implements Updatable.
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

// Snapshot implements Updatable: the prefixes decoded from the table.
func (d *DeltaStore) Snapshot() []hashx.Prefix {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.table.Prefixes()
}
