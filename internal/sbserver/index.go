package sbserver

import (
	"sync"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/prefixtable"
	"sbprivacy/internal/wire"
)

// numShards is the stripe count of the serving index. A power of two so
// shard selection is a mask of the prefix's low bits; SHA-256 prefixes
// are uniform, so the stripes load-balance for free.
const numShards = 128

// indexEntry is one full digest served for a prefix, tagged with the
// owning list. rank is the list's creation rank: entries for a prefix
// are kept grouped by ascending rank so FullHashes emits matches in
// list-creation order.
type indexEntry struct {
	rank   uint32
	list   string
	digest hashx.Digest
}

// flatStripe is one independently locked flat prefix table. The Table
// spans several cache lines on its own, so neighbouring stripes' lock
// words never share a line.
type flatStripe struct {
	mu sync.RWMutex
	t  prefixtable.Table
}

// flatIndex is the serving-path index, the structure a full-hash
// lookup reads and a list mutation writes: the flat open-addressing
// prefix table of internal/prefixtable, lock-striped by prefix low
// bits. It is keyed by prefix across all lists, so a lookup touches
// exactly one stripe per requested prefix and lookups on different
// prefixes never contend. A growth rehashes one stripe in one pass
// under its write lock; list mutations run before the server takes
// traffic, so no lookup waits behind one.
type flatIndex struct {
	stripes [numShards]flatStripe
}

func newFlatIndex() *flatIndex {
	return &flatIndex{}
}

//sbcheck:hotpath
func (x *flatIndex) stripe(p hashx.Prefix) *flatStripe {
	return &x.stripes[uint32(p)&(numShards-1)]
}

// add inserts e for p unless p holds its (rank, digest) already, keeping
// the per-prefix entries grouped by ascending list rank (insertion
// order within a list is preserved). It reports whether p thereby
// gained its first entry of e's rank.
//
//sbcheck:hotpath
func (x *flatIndex) add(p hashx.Prefix, e indexEntry) (first bool) {
	st := x.stripe(p)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.t.Add(p, e.rank, e.list, e.digest)
}

// remove deletes the entry for (rank, digest) under p, if present;
// removing an absent entry is a no-op. It reports whether the removal
// took p's last entry of that rank.
func (x *flatIndex) remove(p hashx.Prefix, rank uint32, d hashx.Digest) (last bool) {
	st := x.stripe(p)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.t.Remove(p, rank, d)
}

// digests returns p's digests of the given rank in insertion order, nil
// if none.
func (x *flatIndex) digests(p hashx.Prefix, rank uint32) []hashx.Digest {
	st := x.stripe(p)
	st.mu.RLock()
	defer st.mu.RUnlock()
	var out []hashx.Digest
	for c := st.t.Find(p); c.Next(); {
		if r, _, d := c.Entry(); r == rank {
			out = append(out, d)
		}
	}
	return out
}

// prefixes appends to dst, unsorted, every prefix with an entry of rank.
func (x *flatIndex) prefixes(rank uint32, dst []hashx.Prefix) []hashx.Prefix {
	for i := range x.stripes {
		st := &x.stripes[i]
		st.mu.RLock()
		dst = st.t.AppendPrefixes(dst, rank)
		st.mu.RUnlock()
	}
	return dst
}

// lookup appends the full-hash entries matching p to dst and returns
// the extended slice. Orphan prefixes have no index entries and append
// nothing — the client hears only silence for them. With a dst whose
// capacity covers the matches, a lookup performs zero allocations
// (TestPrefixTableLookupAllocs gates this).
//
//sbcheck:hotpath
func (x *flatIndex) lookup(p hashx.Prefix, dst []wire.FullHashEntry) []wire.FullHashEntry {
	st := x.stripe(p)
	st.mu.RLock()
	defer st.mu.RUnlock()
	for c := st.t.Find(p); c.Next(); {
		_, list, d := c.Entry()
		dst = append(dst, wire.FullHashEntry{List: list, Digest: d})
	}
	return dst
}
