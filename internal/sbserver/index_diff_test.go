package sbserver

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/wire"
)

// The differential fuzz harness holds the flat serving index to a
// plain map model under arbitrary interleavings of add, remove and
// lookup, including the cases the flat design's incremental growth
// makes delicate: rank collisions on one prefix, duplicate (rank,
// digest) entries, remove-of-absent, and bulk loads that force a
// stripe through one or more generation migrations mid-sequence.
//
// Every fuzz input decodes into a valid op sequence (no rejected
// bytes), so coverage-guided fuzzing explores index states rather than
// parser errors. The committed seed corpus under
// testdata/fuzz/FuzzIndexDifferential is replayed by plain
// "go test ./..." — the differential contract is enforced on every CI
// run, not only when someone runs -fuzz.

// mapModel is the oracle: one unstriped, unlocked map holding each
// prefix's entries grouped by ascending rank, insertion order within a
// rank — the order FullHashes promises.
type mapModel map[hashx.Prefix][]indexEntry

// add inserts e after every entry of p whose rank is not above its own.
func (m mapModel) add(p hashx.Prefix, e indexEntry) {
	entries := m[p]
	i := len(entries)
	for i > 0 && entries[i-1].rank > e.rank {
		i--
	}
	m[p] = slices.Insert(entries, i, e)
}

// remove deletes the first entry for (rank, digest) under p, if any.
func (m mapModel) remove(p hashx.Prefix, rank uint32, d hashx.Digest) {
	entries := m[p]
	for i, e := range entries {
		if e.rank == rank && e.digest == d {
			entries = slices.Delete(entries, i, i+1)
			break
		}
	}
	if len(entries) == 0 {
		delete(m, p)
	} else {
		m[p] = entries
	}
}

// lookup returns p's entries in served order.
func (m mapModel) lookup(p hashx.Prefix) []wire.FullHashEntry {
	var out []wire.FullHashEntry
	for _, e := range m[p] {
		out = append(out, wire.FullHashEntry{List: e.list, Digest: e.digest})
	}
	return out
}

// diffOp is one decoded operation: 3 input bytes each.
const diffOpLen = 3

// diffPrefix maps a selector byte onto a small adversarial prefix
// universe. Two bits pick the shape, six bits the element, so inputs
// mix prefixes that share a stripe (probe-cluster pressure), prefixes
// that are sequential (neighbouring stripes) and prefixes that are
// well spread (growth across the whole index).
func diffPrefix(b byte) hashx.Prefix {
	i := uint32(b & 0x3f)
	switch b >> 6 {
	case 0: // sequential: consecutive stripes
		return hashx.Prefix(0x1000 + i)
	case 1: // same stripe: stride numShards keeps them colliding
		return hashx.Prefix(0x2000 + i*numShards)
	case 2: // spread: Fibonacci hashing scatters them
		return hashx.Prefix(i * 2654435761)
	default: // tiny universe: maximal duplicate/remove-absent traffic
		return hashx.Prefix(0x3000 + i%4)
	}
}

// diffDigest derives a deterministic digest from a prefix and a 2-bit
// tag, so the same input bytes always name the same entry and distinct
// tags give one prefix several digests.
func diffDigest(p hashx.Prefix, tag byte) hashx.Digest {
	var d hashx.Digest
	d[0] = byte(p >> 24)
	d[1] = byte(p >> 16)
	d[2] = byte(p >> 8)
	d[3] = byte(p)
	d[4] = tag
	for i := 5; i < len(d); i++ {
		d[i] = byte(i) ^ tag
	}
	return d
}

// diffLists ties list names to ranks the way the Server does: rank is
// the list's creation rank, so the pair travels together.
var diffLists = [4]string{"list-0", "list-1", "list-2", "list-3"}

// applyDiffOp decodes one op from three bytes and applies it to the
// model and the flat index, returning the prefix it touched.
func applyDiffOp(a mapModel, b *flatIndex, op [diffOpLen]byte) hashx.Prefix {
	p := diffPrefix(op[1])
	rank := uint32(op[2] & 3)
	tag := (op[2] >> 2) & 3
	list := diffLists[rank]
	d := diffDigest(p, tag)
	switch op[0] & 3 {
	case 0: // add one entry
		a.add(p, indexEntry{rank: rank, list: list, digest: d})
		b.add(p, indexEntry{rank: rank, list: list, digest: d})
	case 1: // remove one entry (possibly absent)
		a.remove(p, rank, d)
		b.remove(p, rank, d)
	case 2: // bulk add: 24 same-stripe prefixes, forces growth
		for k := uint32(0); k < 24; k++ {
			q := p + hashx.Prefix(k*numShards)
			qd := diffDigest(q, tag)
			a.add(q, indexEntry{rank: rank, list: list, digest: qd})
			b.add(q, indexEntry{rank: rank, list: list, digest: qd})
		}
	default: // bulk remove of the same span (some absent)
		for k := uint32(0); k < 24; k++ {
			q := p + hashx.Prefix(k*numShards)
			qd := diffDigest(q, tag)
			a.remove(q, rank, qd)
			b.remove(q, rank, qd)
		}
	}
	return p
}

// diffCompare asserts the flat index answers a lookup of p exactly as
// the model does — same entries, same order (rank groups ascending,
// insertion order within a rank).
func diffCompare(t *testing.T, a mapModel, b *flatIndex, p hashx.Prefix, when string) {
	t.Helper()
	got := b.lookup(p, nil)
	want := a.lookup(p)
	if len(got) != len(want) {
		t.Fatalf("%s: prefix %08x: flat returned %d entries, map %d", when, uint32(p), len(got), len(want))
	}
	for i := range want {
		if got[i].List != want[i].List || !bytes.Equal(got[i].Digest[:], want[i].Digest[:]) {
			t.Fatalf("%s: prefix %08x: entry %d differs: flat (%s, %x…) map (%s, %x…)",
				when, uint32(p), i, got[i].List, got[i].Digest[:4], want[i].List, want[i].Digest[:4])
		}
	}
}

// diffSweep compares the full observable prefix universe: every
// selector byte's prefix plus the bulk-op spans.
func diffSweep(t *testing.T, a mapModel, b *flatIndex, when string) {
	t.Helper()
	for sel := 0; sel < 256; sel++ {
		p := diffPrefix(byte(sel))
		diffCompare(t, a, b, p, when)
		for k := uint32(0); k < 24; k++ {
			diffCompare(t, a, b, p+hashx.Prefix(k*numShards), when)
		}
	}
}

// runIndexDifferential is the shared body of the fuzz target and its
// deterministic replay: decode ops, apply to the model and the flat
// index, compare after every op and sweep periodically.
func runIndexDifferential(t *testing.T, model mapModel, flat *flatIndex, data []byte) {
	var op [diffOpLen]byte
	for n := 0; n+diffOpLen <= len(data); n += diffOpLen {
		copy(op[:], data[n:n+diffOpLen])
		p := applyDiffOp(model, flat, op)
		diffCompare(t, model, flat, p, fmt.Sprintf("after op %d", n/diffOpLen))
		if (n/diffOpLen)%16 == 15 {
			diffSweep(t, model, flat, fmt.Sprintf("sweep at op %d", n/diffOpLen))
		}
	}
	diffSweep(t, model, flat, "final sweep")
}

// FuzzIndexDifferential cross-checks flatIndex against mapModel on
// arbitrary op sequences. Run with -fuzz=FuzzIndexDifferential to
// explore; the committed corpus replays in every plain test run.
func FuzzIndexDifferential(f *testing.F) {
	// Handwritten seeds covering the regimes the corpus files also pin:
	// empty input, duplicate adds, remove-of-absent, rank collisions on
	// one prefix, and a growth-forcing bulk storm.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0, 0xc0, 0, 0, 0xc0, 0, 1, 0xc0, 0, 1, 0xc0, 0})
	f.Add([]byte{2, 0x40, 0, 2, 0x41, 1, 3, 0x40, 0, 2, 0x40, 2})
	// Two bulk adds fill one stripe to its load ceiling (48 prefixes)
	// and a 49th starts a growth, so the final sweep reads a stripe whose
	// prefixes still sit in the draining generation.
	f.Add([]byte{2, 0x40, 0, 2, 0x58, 0, 0, 0x70, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		runIndexDifferential(t, mapModel{}, newFlatIndex(), data)
	})
}
