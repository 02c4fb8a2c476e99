package sbserver

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/wire"
)

// replayDownload reconstructs a list's prefix set the way a fresh
// client does: apply every add and sub chunk of a from-zero Download in
// order, then sort.
func replayDownload(t *testing.T, s *Server, list string) []hashx.Prefix {
	t.Helper()
	resp, err := s.Download(&wire.DownloadRequest{States: []wire.ListState{{List: list}}})
	if err != nil {
		t.Fatalf("Download: %v", err)
	}
	set := make(map[hashx.Prefix]struct{})
	for _, c := range resp.Chunks {
		for _, p := range c.Prefixes {
			if c.Type == wire.ChunkAdd {
				set[p] = struct{}{}
			} else {
				delete(set, p)
			}
		}
	}
	out := make([]hashx.Prefix, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// listModel is the oracle for one list: each live prefix maps to its
// full digests in insertion order. A live prefix with no digests is an
// orphan (paper Section 7.2).
type listModel map[hashx.Prefix][]hashx.Digest

// addDigests mirrors Server.AddDigests: a digest already in the list
// is skipped, and a digest on an orphan turns the orphan into an
// ordinary prefix.
func (m listModel) addDigests(ds []hashx.Digest) {
	for _, d := range ds {
		p := d.Prefix()
		if !slices.Contains(m[p], d) {
			m[p] = append(m[p], d)
		}
	}
}

// addOrphans mirrors Server.AddOrphanPrefixes: only prefixes that are
// not live become orphans.
func (m listModel) addOrphans(ps []hashx.Prefix) {
	for _, p := range ps {
		if _, live := m[p]; !live {
			m[p] = nil
		}
	}
}

// remove mirrors Server.RemoveExpressions: a prefix that is left with
// no digest leaves the list. That includes an orphan whose prefix an
// absent expression hashes to: the orphan is retired.
func (m listModel) remove(exprs []string) {
	for _, e := range exprs {
		d := hashx.Sum(e)
		p := d.Prefix()
		ds, live := m[p]
		if !live {
			continue
		}
		ds = slices.DeleteFunc(ds, func(x hashx.Digest) bool { return x == d })
		if len(ds) == 0 {
			delete(m, p)
		} else {
			m[p] = ds
		}
	}
}

// sortedPrefixes returns the model's live prefixes in ascending order.
func (m listModel) sortedPrefixes() []hashx.Prefix {
	out := make([]hashx.Prefix, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// oracleLists are the two lists the list oracle mutates, in creation
// order: the first is newTestServer's.
var oracleLists = []string{"goog-malware-shavar", "googpub-phish-shavar"}

// listOracle generates the list oracle's seeded steps. The two lists
// share one expression universe, so the same expression lands in both
// lists, an orphan of one list sits on a prefix the other list serves
// digests for, orphans later gain digests, prefixes carry twin digests,
// and removals name expressions a list does not hold (retiring an
// orphan when one sits on the expression's prefix).
type listOracle struct {
	rng      *rand.Rand
	universe []string
	models   []listModel
	// seen counts, per case the doc comment names, the steps that
	// exercised it.
	seen map[string]int
}

func newListOracle(seed int64) *listOracle {
	o := &listOracle{
		rng:      rand.New(rand.NewSource(seed)),
		universe: make([]string, 48),
		models:   []listModel{{}, {}},
		seen:     map[string]int{},
	}
	for i := range o.universe {
		o.universe[i] = fmt.Sprintf("e%02d.example/", i)
	}
	return o
}

// step applies the next seeded mutation to one of s's oracleLists and
// to that list's model.
func (o *listOracle) step(s *Server) error {
	rng, seen := o.rng, o.seen
	li := rng.Intn(len(oracleLists))
	list, m, other := oracleLists[li], o.models[li], o.models[1-li]
	exprs := make([]string, 1+rng.Intn(6))
	for i := range exprs {
		exprs[i] = o.universe[rng.Intn(len(o.universe))]
	}
	switch rng.Intn(6) {
	case 0: // plain digests
		ds := make([]hashx.Digest, len(exprs))
		for i, e := range exprs {
			ds[i] = hashx.Sum(e)
			if slices.Contains(other[ds[i].Prefix()], ds[i]) {
				seen["same expression in both lists"]++
			}
			if ds, live := m[ds[i].Prefix()]; live && len(ds) == 0 {
				seen["orphan gains a digest"]++
			}
		}
		m.addDigests(ds)
		return s.AddExpressions(list, exprs)
	case 1: // each digest plus a twin sharing its prefix
		var ds []hashx.Digest
		for _, e := range exprs {
			d := hashx.Sum(e)
			twin := d
			twin[31] ^= 0x5a
			ds = append(ds, d, twin)
		}
		seen["twin digests on one prefix"]++
		m.addDigests(ds)
		return s.AddDigests(list, ds)
	case 2: // orphans, some over already-live prefixes
		ps := make([]hashx.Prefix, len(exprs))
		for i, e := range exprs {
			ps[i] = hashx.SumPrefix(e)
			if _, live := m[ps[i]]; !live && len(other[ps[i]]) > 0 {
				seen["orphan on a prefix the other list serves"]++
			}
		}
		m.addOrphans(ps)
		return s.AddOrphanPrefixes(list, ps)
	default: // removals (half the steps), some of absent expressions
		for _, e := range exprs {
			d := hashx.Sum(e)
			ds, live := m[d.Prefix()]
			if !slices.Contains(ds, d) {
				seen["removal of an absent expression"]++
			}
			if live && len(ds) == 0 {
				seen["absent expression retires an orphan"]++
			}
		}
		m.remove(exprs)
		return s.RemoveExpressions(list, exprs)
	}
}

// TestPrefixSetMatchesChunkReplay holds the server's list management to
// a map model over the listOracle's steps. After every step, for both
// lists:
//   - ListLen is the model's size;
//   - PrefixesOf is strictly ascending, equals the model's prefix set
//     and what a fresh client reconstructs from Download;
//   - DigestsOf answers every prefix of the universe as the model does:
//     the same digests in the same order, and the same live flag;
//
// and one FullHashes request over the whole universe returns, per
// prefix, each list's digests in list-rank order. Each of the cases
// listOracle names must occur for every seed, so a narrowed universe
// cannot quietly stop exercising them.
func TestPrefixSetMatchesChunkReplay(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 2, 3, 2015} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			o := newListOracle(seed)
			prefixes := make([]hashx.Prefix, len(o.universe))
			for i, e := range o.universe {
				prefixes[i] = hashx.SumPrefix(e)
			}
			s := newTestServer(t)
			if err := s.CreateList(oracleLists[1], "phishing"); err != nil {
				t.Fatalf("CreateList: %v", err)
			}
			for step := 0; step < 600; step++ {
				if err := o.step(s); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				for li, list := range oracleLists {
					checkListAgainstModel(t, s, list, o.models[li], prefixes, fmt.Sprintf("step %d: %s", step, list))
				}
				checkFullHashesAgainstModels(t, s, oracleLists, o.models, prefixes, fmt.Sprintf("step %d", step))
			}
			for _, c := range []string{
				"same expression in both lists",
				"orphan on a prefix the other list serves",
				"orphan gains a digest",
				"twin digests on one prefix",
				"removal of an absent expression",
				"absent expression retires an orphan",
			} {
				if o.seen[c] == 0 {
					t.Errorf("no step exercised %q", c)
				}
			}
		})
	}
}

// checkListAgainstModel compares one list's ListLen, PrefixesOf and
// DigestsOf (over every prefix of the universe) with its model and its
// chunk replay.
func checkListAgainstModel(t *testing.T, s *Server, list string, m listModel, universe []hashx.Prefix, when string) {
	t.Helper()
	got, err := s.PrefixesOf(list)
	if err != nil {
		t.Fatalf("%s: PrefixesOf: %v", when, err)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("%s: PrefixesOf not strictly ascending at %d: %v >= %v", when, i, got[i-1], got[i])
		}
	}
	if want := m.sortedPrefixes(); !slices.Equal(got, want) {
		t.Fatalf("%s: PrefixesOf has %d prefixes, model %d:\n got %v\nwant %v", when, len(got), len(want), got, want)
	}
	if want := replayDownload(t, s, list); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: PrefixesOf has %d prefixes, chunk replay %d:\n got %v\nwant %v",
			when, len(got), len(want), got, want)
	}
	if n, err := s.ListLen(list); err != nil || n != len(m) {
		t.Fatalf("%s: ListLen = %d, %v; want %d", when, n, err, len(m))
	}
	for _, p := range universe {
		ds, live, err := s.DigestsOf(list, p)
		if err != nil {
			t.Fatalf("%s: DigestsOf(%08x): %v", when, uint32(p), err)
		}
		want, wantLive := m[p]
		if live != wantLive || !slices.Equal(ds, want) {
			t.Fatalf("%s: DigestsOf(%08x) = %d digests, live %v; model %d, live %v",
				when, uint32(p), len(ds), live, len(want), wantLive)
		}
	}
}

// checkFullHashesAgainstModels sends one full-hash request for the
// whole universe and compares the entries with the models: per
// requested prefix, each list's digests in list-rank order.
func checkFullHashesAgainstModels(t *testing.T, s *Server, lists []string, models []listModel, universe []hashx.Prefix, when string) {
	t.Helper()
	resp, err := s.FullHashes(&wire.FullHashRequest{ClientID: "oracle", Prefixes: universe})
	if err != nil {
		t.Fatalf("%s: FullHashes: %v", when, err)
	}
	var want []wire.FullHashEntry
	for _, p := range universe {
		for li, list := range lists {
			for _, d := range models[li][p] {
				want = append(want, wire.FullHashEntry{List: list, Digest: d})
			}
		}
	}
	if !slices.Equal(resp.Entries, want) {
		t.Fatalf("%s: FullHashes returned %d entries, models %d:\n got %v\nwant %v",
			when, len(resp.Entries), len(want), resp.Entries, want)
	}
}
