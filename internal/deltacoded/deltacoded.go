// Package deltacoded implements the delta-coded prefix table that Google
// deployed in Chromium (replacing the Bloom filter in September 2012) to
// store the Safe Browsing prefix database on the client.
//
// Sorted 32-bit prefixes are encoded as a sparse index of (prefix, offset)
// anchors plus a dense array of 16-bit deltas between consecutive
// prefixes. A new anchor is emitted whenever a delta overflows 16 bits or
// a run reaches the maximum length, which bounds the linear scan a query
// performs after the binary search over the anchors.
//
// Unlike a Bloom filter the table is exact (no intrinsic false positives —
// only the truncation-induced collisions of 32-bit prefixes remain) and is
// cheap to rebuild on every blacklist update, which is why Google chose it
// for the highly dynamic Safe Browsing lists (paper Section 2.2.2). For
// uniformly distributed prefixes it needs roughly 2 bytes per prefix
// versus 4 raw, the 1.9× compression the paper's Table 2 reports.
package deltacoded

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"sbprivacy/internal/hashx"
)

// maxRun caps the number of deltas between two anchors, bounding the
// linear scan per query. Chromium uses 100.
const maxRun = 100

// ErrUnsorted reports that the input to Build was not strictly increasing.
var ErrUnsorted = errors.New("deltacoded: prefixes must be sorted and unique")

type anchor struct {
	value    uint32
	deltaIdx uint32
}

// Table is an immutable delta-coded set of 32-bit prefixes. The zero value
// is an empty table ready to query. Rebuild with Build (or Merge) on every
// update, mirroring Chromium's behaviour.
type Table struct {
	anchors []anchor
	deltas  []uint16
	n       int
}

// Build constructs a table from strictly increasing prefixes.
func Build(sorted []hashx.Prefix) (*Table, error) {
	t := &Table{n: len(sorted)}
	if len(sorted) == 0 {
		return t, nil
	}
	t.anchors = append(t.anchors, anchor{value: uint32(sorted[0])})
	run := 0
	for i := 1; i < len(sorted); i++ {
		prev, cur := uint32(sorted[i-1]), uint32(sorted[i])
		if cur <= prev {
			return nil, fmt.Errorf("%w: %v then %v", ErrUnsorted, sorted[i-1], sorted[i])
		}
		delta := uint64(cur) - uint64(prev)
		if delta > 0xffff || run == maxRun {
			t.anchors = append(t.anchors, anchor{value: cur, deltaIdx: uint32(len(t.deltas))})
			run = 0
			continue
		}
		t.deltas = append(t.deltas, uint16(delta))
		run++
	}
	return t, nil
}

// BuildFromUnsorted sorts and deduplicates prefixes, then builds the table.
func BuildFromUnsorted(prefixes []hashx.Prefix) *Table {
	return mustBuild(slices.Compact(sortedCopy(prefixes)))
}

// mustBuild is Build for input this package has itself sorted and
// deduplicated.
func mustBuild(sorted []hashx.Prefix) *Table {
	t, err := Build(sorted)
	if err != nil {
		panic(fmt.Sprintf("deltacoded: internal build error: %v", err))
	}
	return t
}

func sortedCopy(prefixes []hashx.Prefix) []hashx.Prefix {
	sorted := slices.Clone(prefixes)
	slices.Sort(sorted)
	return sorted
}

// mergeSorted returns (base ∪ add) \ remove, sorted and without
// duplicates: the add/sub-chunk update of a prefix set that is kept
// sorted. base must be sorted and unique; add and remove may be in any
// order and repeat, and a prefix in both is removed. Only the two
// updates are sorted (copies; the arguments are left alone) — one
// linear pass then merges them into base.
func mergeSorted(base, add, remove []hashx.Prefix) []hashx.Prefix {
	add, remove = sortedCopy(add), sortedCopy(remove)
	merged := make([]hashx.Prefix, 0, len(base)+len(add))
	for len(base) > 0 || len(add) > 0 {
		var p hashx.Prefix
		if len(add) == 0 || (len(base) > 0 && base[0] <= add[0]) {
			p, base = base[0], base[1:]
		} else {
			p, add = add[0], add[1:]
		}
		for len(remove) > 0 && remove[0] < p {
			remove = remove[1:]
		}
		dropped := len(remove) > 0 && remove[0] == p
		repeated := len(merged) > 0 && merged[len(merged)-1] == p
		if !dropped && !repeated {
			merged = append(merged, p)
		}
	}
	return merged
}

// Contains reports whether the prefix is in the table.
func (t *Table) Contains(p hashx.Prefix) bool {
	if len(t.anchors) == 0 {
		return false
	}
	target := uint32(p)
	// Find the last anchor with value <= target.
	i := sort.Search(len(t.anchors), func(i int) bool { return t.anchors[i].value > target })
	if i == 0 {
		return false
	}
	a := t.anchors[i-1]
	if a.value == target {
		return true
	}
	end := uint32(len(t.deltas))
	if i < len(t.anchors) {
		end = t.anchors[i].deltaIdx
	}
	cur := uint64(a.value)
	for j := a.deltaIdx; j < end; j++ {
		cur += uint64(t.deltas[j])
		if cur == uint64(target) {
			return true
		}
		if cur > uint64(target) {
			return false
		}
	}
	return false
}

// Len returns the number of stored prefixes.
func (t *Table) Len() int { return t.n }

// SizeBytes returns the memory footprint: 8 bytes per anchor plus 2 bytes
// per delta.
func (t *Table) SizeBytes() int {
	return len(t.anchors)*8 + len(t.deltas)*2
}

// Anchors returns the number of index anchors (for diagnostics and the
// Table 2 ablation).
func (t *Table) Anchors() int { return len(t.anchors) }

// Prefixes decodes the table back into its sorted prefix list.
func (t *Table) Prefixes() []hashx.Prefix {
	out := make([]hashx.Prefix, 0, t.n)
	for i, a := range t.anchors {
		out = append(out, hashx.Prefix(a.value))
		end := uint32(len(t.deltas))
		if i+1 < len(t.anchors) {
			end = t.anchors[i+1].deltaIdx
		}
		cur := uint64(a.value)
		for j := a.deltaIdx; j < end; j++ {
			cur += uint64(t.deltas[j])
			out = append(out, hashx.Prefix(cur))
		}
	}
	return out
}

// Merge rebuilds the table with additions applied and removals dropped,
// the update model of the Safe Browsing protocol (add/sub chunks).
func (t *Table) Merge(add, remove []hashx.Prefix) *Table {
	return mustBuild(mergeSorted(t.Prefixes(), add, remove))
}
