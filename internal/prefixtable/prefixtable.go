// Package prefixtable implements the provider's flat open-addressing
// serving index: the structure behind the paper's observation that a
// provider holding millions of 32-bit prefixes answers full-hash
// lookups at memory speed.
//
// The table maps a 32-bit hashx.Prefix to the ordered set of
// (rank, list, digest) entries served for it. Layout:
//
//   - an open-addressing slot array probed linearly, split into three
//     parallel dense arrays: one control byte per slot (empty /
//     tombstone / occupied+7-bit hash fragment), the 32-bit key, and
//     the head of the slot's entry chain. A probe touches only the
//     control bytes until the fragment matches, so one 64-byte cache
//     line screens 64 candidate slots;
//   - a dense side array of fixed-size entries (digest, rank, interned
//     list id, next link) chained per prefix in ascending rank order,
//     recycled through a free list on removal;
//   - xxhash-style avalanche mixing of the key, so slot choice stays
//     uniform even for adversarially structured prefixes (sequential
//     orphan prefixes, targeted-injection patterns);
//   - bounded probe distance: an insert that would probe past
//     maxProbe slots triggers a growth instead, so lookup cost stays
//     O(maxProbe) worst-case rather than degrading with clustering;
//   - incremental growth: a grown table migrates a fixed number of
//     slots per mutation (plus the slot of the key being touched), so
//     a Downloads-driven add/remove burst never stalls the serving
//     path behind a full rehash.
//
// The zero Table is empty and ready to use. A Table is not safe for
// concurrent use; the serving layer (internal/sbserver) stripes tables
// by prefix low bits and guards each stripe with an RWMutex.
package prefixtable

import (
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

// minCap is the slot count of a freshly initialized generation: one
// cache line of control bytes.
const minCap = 64

// maxProbe bounds the linear probe distance. An insert that would walk
// further triggers a growth instead, so a lookup never scans more than
// maxProbe control bytes (two cache lines) per generation for keys
// placed under the bound. At the 3/4 load ceiling, clusters that long
// are rare enough that bound-triggered growth stays exceptional.
const maxProbe = 128

// migrateStep is the number of old-generation slots every mutation
// migrates. 4 drains a full old generation long before the doubled
// generation can refill to its growth threshold (capacity/4 mutations
// versus at least 3/4·capacity inserts), so at most one migration is
// ever pending.
const migrateStep = 4

// maxLoadNum/maxLoadDen set the occupancy threshold (live + tombstones
// + pending migration) past which a generation grows: 3/4. Linear
// probing keeps clusters short at this ceiling, which is what lets
// maxProbe hold as a practical bound.
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

// entry is one (rank, list, digest) record served for a prefix, linked
// per-prefix in ascending rank order through the table's dense side
// array.
type entry struct {
	digest hashx.Digest
	rank   uint32
	listID uint32
	next   int32 // side-array index of the next entry; -1 terminates
}

// gen is one generation of the open-addressing slot arrays. During an
// incremental growth two generations are live: inserts go to the new
// one, lookups consult both, and mutations migrate old slots over a
// few at a time.
type gen struct {
	ctrl  []uint8  // per-slot control byte
	keys  []uint32 // per-slot prefix
	heads []int32  // per-slot entry-chain head
	mask  uint32   // len(ctrl)-1; len is always a power of two
	live  int      // occupied slots
	dead  int      // tombstoned slots
}

// initGen allocates a generation of the given power-of-two capacity.
func (g *gen) initGen(capacity int) {
	g.ctrl = make([]uint8, capacity)
	g.keys = make([]uint32, capacity)
	g.heads = make([]int32, capacity)
	g.mask = uint32(capacity - 1)
	g.live = 0
	g.dead = 0
}

// find returns the slot index holding key, scanning control bytes from
// the mixed hash position until the key matches or an empty slot
// proves absence.
//
//sbcheck:hotpath
func (g *gen) find(key uint32) (uint32, bool) {
	if g.ctrl == nil {
		return 0, false
	}
	h := mix(key)
	want := uint8(0x80 | h>>25)
	i := h & g.mask
	for n := uint32(0); n <= g.mask; n++ {
		c := g.ctrl[i]
		if c == want && g.keys[i] == key {
			return i, true
		}
		if c == ctrlEmpty {
			return 0, false
		}
		i = (i + 1) & g.mask
	}
	return 0, false
}

// insertFresh places a key known to be absent, reusing the first
// tombstone or empty slot on its probe path. Used by migration and by
// claim's post-growth retry; capacity is guaranteed by the caller.
func (g *gen) insertFresh(key uint32, head int32) {
	h := mix(key)
	i := h & g.mask
	for {
		c := g.ctrl[i]
		if c == ctrlEmpty || c == ctrlTombstone {
			if c == ctrlTombstone {
				g.dead--
			}
			g.ctrl[i] = uint8(0x80 | h>>25)
			g.keys[i] = key
			g.heads[i] = head
			g.live++
			return
		}
		i = (i + 1) & g.mask
	}
}

// claim finds the slot for key, or claims one if absent. It reports
// whether the key already existed and whether the probe stayed within
// the maxProbe bound; on ok == false nothing was claimed and the
// caller must grow and retry.
func (g *gen) claim(key uint32) (slot uint32, existed, ok bool) {
	h := mix(key)
	want := uint8(0x80 | h>>25)
	i := h & g.mask
	reuse := uint32(0)
	haveReuse := false
	for n := uint32(0); n <= g.mask; n++ {
		c := g.ctrl[i]
		if c == want && g.keys[i] == key {
			return i, true, true
		}
		if c == ctrlEmpty {
			if n >= maxProbe && !haveReuse {
				return 0, false, false
			}
			if haveReuse {
				i = reuse
				g.dead--
			}
			g.ctrl[i] = want
			g.keys[i] = key
			g.live++
			return i, false, true
		}
		if c == ctrlTombstone && !haveReuse {
			reuse, haveReuse = i, true
		}
		i = (i + 1) & g.mask
	}
	// The scan wrapped: every slot is occupied or tombstoned. Reuse a
	// tombstone if one exists, else the generation is truly full.
	if haveReuse {
		g.ctrl[reuse] = want
		g.keys[reuse] = key
		g.dead--
		g.live++
		return reuse, false, true
	}
	return 0, false, false
}

// Table is the flat open-addressing prefix index. The zero value is an
// empty table ready for use. Not safe for concurrent use.
type Table struct {
	cur gen // insert generation
	old gen // draining generation during incremental growth (ctrl == nil otherwise)

	migrateNext uint32 // next old slot to examine

	entries  []entry
	freeHead int32 // entry free-list head; -1 (or 0 on a zero Table before first use) = none
	freeLen  int

	lists   []string
	listIDs map[string]uint32

	n     int // live prefixes across both generations
	grows int // completed growth triggers (stats)
}

// New returns a table pre-sized for hint prefixes, so the build of a
// list at a known size performs no incremental growths at all.
func New(hint int) *Table {
	t := &Table{}
	if hint > 0 {
		capacity := minCap
		for capacity*maxLoadNum < hint*maxLoadDen {
			capacity *= 2
		}
		t.cur.initGen(capacity)
	}
	t.freeHead = -1
	return t
}

// internList maps a list name to its dense id, interning new names.
func (t *Table) internList(list string) uint32 {
	if t.listIDs == nil {
		t.listIDs = make(map[string]uint32, 4)
	}
	if id, ok := t.listIDs[list]; ok {
		return id
	}
	id := uint32(len(t.lists))
	t.lists = append(t.lists, list)
	t.listIDs[list] = id
	return id
}

// allocEntry stores e in the side array, recycling the free list.
func (t *Table) allocEntry(e entry) int32 {
	if t.entries == nil {
		// First use of a zero Table: establish the free-list sentinel.
		t.freeHead = -1
	}
	if t.freeHead >= 0 {
		i := t.freeHead
		t.freeHead = t.entries[i].next
		t.entries[i] = e
		t.freeLen--
		return i
	}
	t.entries = append(t.entries, e)
	return int32(len(t.entries) - 1)
}

// freeEntry returns side-array index i to the free list.
func (t *Table) freeEntry(i int32) {
	t.entries[i] = entry{next: t.freeHead}
	t.freeHead = i
	t.freeLen++
}

// migrate moves up to n occupied slots from the draining generation
// into the current one. The last step clears the old generation.
func (t *Table) migrate(n int) {
	if t.old.ctrl == nil {
		return
	}
	for n > 0 {
		if t.migrateNext > t.old.mask {
			t.old = gen{}
			return
		}
		i := t.migrateNext
		t.migrateNext++
		if t.old.ctrl[i]&0x80 != 0 {
			t.cur.insertFresh(t.old.keys[i], t.old.heads[i])
			t.old.ctrl[i] = ctrlTombstone
			t.old.live--
			n--
		}
	}
	if t.migrateNext > t.old.mask {
		t.old = gen{}
	}
}

// finishMigration drains the old generation completely. Called before
// a new growth begins, so at most one migration is ever pending.
func (t *Table) finishMigration() {
	for t.old.ctrl != nil {
		t.migrate(1 << 16)
	}
}

// pull relocates key's slot from the draining generation into the
// current one, preserving the invariant that a prefix lives in exactly
// one generation before any mutation touches its chain.
func (t *Table) pull(key uint32) {
	if t.old.ctrl == nil {
		return
	}
	if i, ok := t.old.find(key); ok {
		t.cur.insertFresh(key, t.old.heads[i])
		t.old.ctrl[i] = ctrlTombstone
		t.old.live--
	}
}

// maybeGrow starts a growth when the current generation's projected
// occupancy (live + tombstones + slots still to migrate in) crosses
// the load threshold. Growth is incremental: this only swaps the
// generations; migration happens migrateStep slots per mutation.
func (t *Table) maybeGrow() {
	if t.cur.ctrl == nil {
		t.cur.initGen(minCap)
		return
	}
	projected := t.cur.live + t.cur.dead + t.old.live
	if projected*maxLoadDen < len(t.cur.ctrl)*maxLoadNum {
		return
	}
	t.grow()
}

// grow finishes any pending migration, then swaps in a fresh
// generation: doubled when occupancy is real growth, same-sized when
// tombstones dominate (a remove-heavy phase just needs a rehash).
func (t *Table) grow() {
	t.finishMigration()
	capacity := len(t.cur.ctrl) * 2
	if t.cur.dead > t.cur.live {
		capacity = len(t.cur.ctrl)
	}
	t.old = t.cur
	t.cur = gen{}
	t.cur.initGen(capacity)
	t.migrateNext = 0
	t.grows++
}

// Add inserts one (rank, list, digest) entry for p, keeping the
// prefix's chain grouped by ascending rank with insertion order
// preserved within a rank — the order a full-hash response lists its
// matches in. Duplicate entries are stored; the caller (the per-list
// digest set) is the dedup point.
//
//sbcheck:hotpath
func (t *Table) Add(p hashx.Prefix, rank uint32, list string, d hashx.Digest) {
	key := uint32(p)
	t.maybeGrow()
	t.migrate(migrateStep)
	t.pull(key)
	slot, existed, ok := t.cur.claim(key)
	for !ok {
		t.grow()
		t.finishMigration()
		slot, existed, ok = t.cur.claim(key)
	}
	idx := t.allocEntry(entry{digest: d, rank: rank, listID: t.internList(list), next: -1})
	if !existed {
		t.cur.heads[slot] = idx
		t.n++
		return
	}
	// Insert after every entry with rank <= rank (stable within rank).
	head := t.cur.heads[slot]
	if t.entries[head].rank > rank {
		t.entries[idx].next = head
		t.cur.heads[slot] = idx
		return
	}
	at := head
	for t.entries[at].next >= 0 && t.entries[t.entries[at].next].rank <= rank {
		at = t.entries[at].next
	}
	t.entries[idx].next = t.entries[at].next
	t.entries[at].next = idx
}

// Remove deletes the first entry matching (rank, d) under p, if
// present; removing an absent entry is a no-op. A prefix whose chain
// empties is deleted from the slot array.
//
//sbcheck:hotpath
func (t *Table) Remove(p hashx.Prefix, rank uint32, d hashx.Digest) {
	key := uint32(p)
	if t.cur.ctrl == nil {
		return
	}
	t.migrate(migrateStep)
	t.pull(key)
	slot, ok := t.cur.find(key)
	if !ok {
		return
	}
	head := t.cur.heads[slot]
	prev := int32(-1)
	for at := head; at >= 0; at = t.entries[at].next {
		e := &t.entries[at]
		if e.rank == rank && e.digest == d {
			next := e.next
			if prev < 0 {
				if next < 0 {
					t.cur.ctrl[slot] = ctrlTombstone
					t.cur.live--
					t.cur.dead++
					t.n--
				} else {
					t.cur.heads[slot] = next
				}
			} else {
				t.entries[prev].next = next
			}
			t.freeEntry(at)
			return
		}
		prev = at
	}
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
	key := uint32(p)
	if i, ok := t.cur.find(key); ok {
		return Cursor{t: t, at: -1, next: t.cur.heads[i]}
	}
	if t.old.ctrl != nil {
		if i, ok := t.old.find(key); ok {
			return Cursor{t: t, at: -1, next: t.old.heads[i]}
		}
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
	return e.rank, c.t.lists[e.listID], e.digest
}

// Contains reports whether p has at least one entry.
//
//sbcheck:hotpath
func (t *Table) Contains(p hashx.Prefix) bool {
	key := uint32(p)
	if _, ok := t.cur.find(key); ok {
		return true
	}
	if t.old.ctrl != nil {
		if _, ok := t.old.find(key); ok {
			return true
		}
	}
	return false
}

// Len returns the number of live prefixes (slots with a non-empty
// chain) across both generations.
func (t *Table) Len() int { return t.n }

// Entries returns the number of live (rank, list, digest) entries.
func (t *Table) Entries() int { return len(t.entries) - t.freeLen }

// Stats is a point-in-time diagnostic snapshot of the table's shape.
type Stats struct {
	// Prefixes is the live prefix count (== Len).
	Prefixes int
	// Entries is the live entry count across all chains.
	Entries int
	// Capacity is the slot count of the insert generation.
	Capacity int
	// Tombstones is the tombstoned slot count of the insert generation.
	Tombstones int
	// Growing reports whether an incremental migration is in flight.
	Growing bool
	// Grows counts growth triggers since creation.
	Grows int
	// FreeEntries is the recycled side-array slot count.
	FreeEntries int
}

// Stats returns the table's current shape for diagnostics.
func (t *Table) Stats() Stats {
	return Stats{
		Prefixes:    t.n,
		Entries:     t.Entries(),
		Capacity:    len(t.cur.ctrl),
		Tombstones:  t.cur.dead,
		Growing:     t.old.ctrl != nil,
		Grows:       t.grows,
		FreeEntries: t.freeLen,
	}
}

// SizeBytes returns the approximate memory footprint: 9 bytes per slot
// per generation, 40 bytes per side-array entry.
func (t *Table) SizeBytes() int {
	slots := len(t.cur.ctrl) + len(t.old.ctrl)
	return slots*(1+4+4) + cap(t.entries)*40
}
