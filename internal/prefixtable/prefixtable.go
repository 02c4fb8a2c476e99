// Package prefixtable implements the provider's flat open-addressing
// serving index: the structure behind the paper's observation that a
// provider holding millions of 32-bit prefixes answers full-hash
// lookups at memory speed.
//
// The table maps a 32-bit hashx.Prefix to the ordered set of
// (rank, digest) entries served for it; a rank names one list. Layout:
//
//   - an open-addressing slot array probed linearly, split into three
//     parallel dense arrays: one control byte per slot (empty /
//     tombstone / occupied+7-bit hash fragment), the 32-bit key, and
//     the head of the slot's entry chain. A probe touches only the
//     control bytes until the fragment matches, so one 64-byte cache
//     line screens 64 candidate slots;
//   - a dense side array of fixed-size entries (digest, rank, next
//     link) chained per prefix in ascending rank order, at most one
//     entry per (rank, digest), recycled through a free list on
//     removal; list names sit in a slice indexed by rank;
//   - xxhash-style avalanche mixing of the key, so slot choice stays
//     uniform even for adversarially structured prefixes (sequential
//     orphan prefixes, targeted-injection patterns);
//   - bounded probe distance: an insert that would probe past
//     maxProbe slots triggers a growth instead, so lookup cost stays
//     O(maxProbe) worst-case rather than degrading with clustering;
//   - one-pass growth: a growth rehashes every slot into a fresh array
//     at once. The serving layer splits the index into 128 tables, so
//     a rehash moves one table's slots, and every list mutation runs
//     before the server takes traffic.
//
// The zero Table is empty and ready to use. A Table is not safe for
// concurrent use; the serving layer (internal/sbserver) stripes tables
// by prefix low bits and guards each stripe with an RWMutex.
package prefixtable

import (
	"unsafe"

	"sbprivacy/internal/hashx"
)

// XXH32 primes: the mixing constants of the xxhash 32-bit finalizer.
const (
	prime2 = 2246822519
	prime3 = 3266489917
	prime4 = 668265263
	prime5 = 374761393
)

// Control byte states. Occupied slots store 0x80 | h7, where h7 is the
// top 7 bits of the mixed hash: a one-byte screen that rejects almost
// every non-matching slot without touching the key array.
const (
	ctrlEmpty     = 0x00
	ctrlTombstone = 0x01
)

// minCap is the slot count of a freshly initialized table: one cache
// line of control bytes.
const minCap = 64

// maxProbe bounds the linear probe distance. An insert that would walk
// further triggers a growth instead, so a lookup never scans more than
// maxProbe control bytes (two cache lines) for keys placed under the
// bound. At the 3/4 load ceiling, clusters that long are rare enough
// that bound-triggered growth stays exceptional.
const maxProbe = 128

// maxLoadNum/maxLoadDen set the occupancy threshold (live + tombstones)
// past which the table grows: 3/4. Linear probing keeps clusters short
// at this ceiling, which is what lets maxProbe hold as a practical
// bound.
const (
	maxLoadNum = 3
	maxLoadDen = 4
)

// mix is the xxhash(XXH32) finalizer for a 4-byte input: one round
// absorbing the key followed by the avalanche. SHA-256 prefixes are
// already uniform, but the serving index also holds orphan and
// injected prefixes the provider (or an experiment) chooses freely;
// mixing keeps slot choice uniform for those too.
//
//sbcheck:hotpath
func mix(key uint32) uint32 {
	h := uint32(prime5) + 4
	h += key * prime3
	h = (h<<17 | h>>15) * prime4
	h ^= h >> 15
	h *= prime2
	h ^= h >> 13
	h *= prime3
	h ^= h >> 16
	return h
}

// entry is one (rank, digest) record served for a prefix, linked
// per-prefix in ascending rank order through the table's dense side
// array.
type entry struct {
	digest hashx.Digest
	rank   uint32
	next   int32 // side-array index of the next entry; -1 terminates
}

// entryBytes is the side-array cost of one entry.
const entryBytes = int(unsafe.Sizeof(entry{}))

// Table is the flat open-addressing prefix index. The zero value is an
// empty table ready for use. Not safe for concurrent use.
type Table struct {
	ctrl  []uint8  // per-slot control byte
	keys  []uint32 // per-slot prefix
	heads []int32  // per-slot entry-chain head
	mask  uint32   // len(ctrl)-1; len is always a power of two
	live  int      // occupied slots: the live prefixes
	dead  int      // tombstoned slots

	entries []entry
	free    int32 // 1 + side-array index of the first free entry; 0 = none

	lists []string // list name by rank
}

// New returns a table pre-sized for hint prefixes, so the build of a
// list at a known size performs no growths at all.
func New(hint int) *Table {
	t := &Table{}
	if hint > 0 {
		capacity := minCap
		for capacity*maxLoadNum < hint*maxLoadDen {
			capacity *= 2
		}
		t.initSlots(capacity)
	}
	return t
}

// initSlots replaces the slot arrays with empty ones of the given
// power-of-two capacity.
func (t *Table) initSlots(capacity int) {
	t.ctrl = make([]uint8, capacity)
	t.keys = make([]uint32, capacity)
	t.heads = make([]int32, capacity)
	t.mask = uint32(capacity - 1)
	t.live = 0
	t.dead = 0
}

// find returns the slot index holding key, scanning control bytes from
// the mixed hash position until the key matches or an empty slot
// proves absence.
//
//sbcheck:hotpath
func (t *Table) find(key uint32) (uint32, bool) {
	if t.ctrl == nil {
		return 0, false
	}
	h := mix(key)
	want := uint8(0x80 | h>>25)
	i := h & t.mask
	for n := uint32(0); n <= t.mask; n++ {
		c := t.ctrl[i]
		if c == want && t.keys[i] == key {
			return i, true
		}
		if c == ctrlEmpty {
			return 0, false
		}
		i = (i + 1) & t.mask
	}
	return 0, false
}

// insertFresh places a key known to be absent in the first empty slot
// on its probe path. Used by grow on arrays without tombstones, whose
// capacity is guaranteed by the caller.
func (t *Table) insertFresh(key uint32, head int32) {
	h := mix(key)
	i := h & t.mask
	for t.ctrl[i] != ctrlEmpty {
		i = (i + 1) & t.mask
	}
	t.ctrl[i] = uint8(0x80 | h>>25)
	t.keys[i] = key
	t.heads[i] = head
	t.live++
}

// claim finds the slot for key, or claims one if absent, reusing the
// first tombstone on the probe path. It reports whether the key already
// existed and whether the probe stayed within the maxProbe bound; on
// ok == false nothing was claimed and the caller must grow and retry.
// The load ceiling keeps a quarter of the slots empty, so every probe
// ends.
func (t *Table) claim(key uint32) (slot uint32, existed, ok bool) {
	h := mix(key)
	want := uint8(0x80 | h>>25)
	i := h & t.mask
	reuse, haveReuse := uint32(0), false
	for n := uint32(0); ; n++ {
		c := t.ctrl[i]
		if c == want && t.keys[i] == key {
			return i, true, true
		}
		if c == ctrlTombstone && !haveReuse {
			reuse, haveReuse = i, true
		}
		if c == ctrlEmpty {
			if haveReuse {
				t.dead--
			} else if n >= maxProbe {
				return 0, false, false
			} else {
				reuse = i
			}
			t.ctrl[reuse] = want
			t.keys[reuse] = key
			t.live++
			return reuse, false, true
		}
		i = (i + 1) & t.mask
	}
}

// allocEntry stores e in the side array, recycling the free list.
func (t *Table) allocEntry(e entry) int32 {
	if t.free > 0 {
		i := t.free - 1
		t.free = t.entries[i].next + 1
		t.entries[i] = e
		return i
	}
	t.entries = append(t.entries, e)
	return int32(len(t.entries) - 1)
}

// freeEntry returns side-array index i to the free list.
func (t *Table) freeEntry(i int32) {
	t.entries[i] = entry{next: t.free - 1}
	t.free = i + 1
}

// maybeGrow grows the table when its occupancy (live + tombstones)
// crosses the load threshold.
func (t *Table) maybeGrow() {
	if t.ctrl == nil {
		t.initSlots(minCap)
		return
	}
	if (t.live+t.dead)*maxLoadDen < len(t.ctrl)*maxLoadNum {
		return
	}
	t.grow()
}

// grow rehashes every live slot into fresh arrays in one pass: doubled
// when occupancy is real growth, same-sized when tombstones dominate (a
// remove-heavy phase just needs a rehash). Entry chains stay where they
// are; only their heads move.
func (t *Table) grow() {
	capacity := len(t.ctrl) * 2
	if t.dead > t.live {
		capacity = len(t.ctrl)
	}
	ctrl, keys, heads := t.ctrl, t.keys, t.heads
	t.initSlots(capacity)
	for i, c := range ctrl {
		if c&0x80 != 0 {
			t.insertFresh(keys[i], heads[i])
		}
	}
}

// Add inserts a (rank, list, digest) entry for p unless p already holds
// that (rank, digest), keeping the prefix's chain grouped by ascending
// rank with insertion order preserved within a rank — the order a
// full-hash response lists its matches in. It reports whether p gained
// its first entry of rank. A rank names one list: list is the name the
// table serves for rank.
//
//sbcheck:hotpath
func (t *Table) Add(p hashx.Prefix, rank uint32, list string, d hashx.Digest) (first bool) {
	t.maybeGrow()
	slot, existed, ok := t.claim(uint32(p))
	for !ok {
		t.grow()
		slot, existed, ok = t.claim(uint32(p))
	}
	if !existed {
		t.heads[slot] = -1
	}
	// Walk past every entry with rank <= rank (stable within rank).
	prev := int32(-1)
	first = true
	for at := t.heads[slot]; at >= 0 && t.entries[at].rank <= rank; at = t.entries[at].next {
		if e := &t.entries[at]; e.rank == rank {
			if e.digest == d {
				return false
			}
			first = false
		}
		prev = at
	}
	idx := t.allocEntry(entry{digest: d, rank: rank})
	if prev < 0 {
		t.entries[idx].next, t.heads[slot] = t.heads[slot], idx
	} else {
		t.entries[idx].next, t.entries[prev].next = t.entries[prev].next, idx
	}
	t.nameRank(rank, list)
	return first
}

// nameRank records list as the name served for rank.
func (t *Table) nameRank(rank uint32, list string) {
	for uint32(len(t.lists)) <= rank {
		t.lists = append(t.lists, "")
	}
	t.lists[rank] = list
}

// Remove deletes p's (rank, d) entry, if present; removing an absent
// entry is a no-op. It reports whether the removal took p's last entry
// of rank. A prefix whose chain empties is deleted from the slot array.
//
//sbcheck:hotpath
func (t *Table) Remove(p hashx.Prefix, rank uint32, d hashx.Digest) (last bool) {
	slot, ok := t.find(uint32(p))
	if !ok {
		return false
	}
	prev, at := int32(-1), t.heads[slot]
	for at >= 0 && (t.entries[at].rank != rank || t.entries[at].digest != d) {
		prev, at = at, t.entries[at].next
	}
	if at < 0 {
		return false
	}
	next := t.entries[at].next
	last = (prev < 0 || t.entries[prev].rank != rank) && (next < 0 || t.entries[next].rank != rank)
	if prev >= 0 {
		t.entries[prev].next = next
	} else {
		t.heads[slot] = next
	}
	if t.heads[slot] < 0 {
		t.ctrl[slot] = ctrlTombstone
		t.live--
		t.dead++
	}
	t.freeEntry(at)
	return last
}

// Cursor iterates the entries of one prefix in served (rank) order.
// Obtain one with Find; call Next before each Entry.
type Cursor struct {
	t    *Table
	at   int32
	next int32
}

// Find returns a cursor over p's entries. A miss returns an exhausted
// cursor; no allocation happens on either path.
//
//sbcheck:hotpath
func (t *Table) Find(p hashx.Prefix) Cursor {
	if i, ok := t.find(uint32(p)); ok {
		return Cursor{t: t, at: -1, next: t.heads[i]}
	}
	return Cursor{at: -1, next: -1}
}

// Next advances to the next entry, reporting whether one exists.
//
//sbcheck:hotpath
func (c *Cursor) Next() bool {
	if c.next < 0 {
		return false
	}
	c.at = c.next
	c.next = c.t.entries[c.at].next
	return true
}

// Entry returns the current entry's rank, list name and full digest.
// Valid only after a Next that returned true.
//
//sbcheck:hotpath
func (c *Cursor) Entry() (rank uint32, list string, digest hashx.Digest) {
	e := &c.t.entries[c.at]
	return e.rank, c.t.lists[e.rank], e.digest
}

// Contains reports whether p has at least one entry.
//
//sbcheck:hotpath
func (t *Table) Contains(p hashx.Prefix) bool {
	_, ok := t.find(uint32(p))
	return ok
}

// AppendPrefixes appends to dst, unsorted, every prefix holding an
// entry of the given rank. It scans the whole slot array, so it costs
// O(capacity): an audit read, not a lookup.
func (t *Table) AppendPrefixes(dst []hashx.Prefix, rank uint32) []hashx.Prefix {
	for i, c := range t.ctrl {
		for at := t.heads[i]; c&0x80 != 0 && at >= 0; at = t.entries[at].next {
			if t.entries[at].rank == rank {
				dst = append(dst, hashx.Prefix(t.keys[i]))
				break
			}
		}
	}
	return dst
}

// Len returns the number of live prefixes (slots with a non-empty
// chain).
func (t *Table) Len() int { return t.live }

// SizeBytes returns the memory footprint of the table's arrays: 9
// bytes per slot, entryBytes per side-array entry allocated.
func (t *Table) SizeBytes() int {
	return len(t.ctrl)*(1+4+4) + cap(t.entries)*entryBytes
}
