package sbserver

import (
	"fmt"
	"math/rand"
	"reflect"
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

// TestPrefixSetMatchesChunkReplay holds the server's per-list prefix set
// to the chunk log it serves: after any mix of digest adds, orphan adds
// and removals — re-adds, orphan-to-digest upgrades, two digests on one
// prefix, removals of absent expressions — PrefixesOf is strictly
// ascending, equals what a fresh client reconstructs from Download, and
// ListLen is its length. The expression universe is small so every one
// of those cases recurs many times per seed.
func TestPrefixSetMatchesChunkReplay(t *testing.T) {
	t.Parallel()
	const list = "goog-malware-shavar"
	universe := make([]string, 48)
	for i := range universe {
		universe[i] = fmt.Sprintf("e%02d.example/", i)
	}
	for _, seed := range []int64{1, 2, 3, 2015} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			pick := func() []string {
				out := make([]string, 1+rng.Intn(6))
				for i := range out {
					out[i] = universe[rng.Intn(len(universe))]
				}
				return out
			}
			s := newTestServer(t)
			for step := 0; step < 400; step++ {
				exprs := pick()
				var err error
				switch rng.Intn(6) {
				case 0: // plain digests
					err = s.AddExpressions(list, exprs)
				case 1: // each digest plus a twin sharing its prefix
					var ds []hashx.Digest
					for _, e := range exprs {
						d := hashx.Sum(e)
						twin := d
						twin[31] ^= 0x5a
						ds = append(ds, d, twin)
					}
					err = s.AddDigests(list, ds)
				case 2: // orphans, some over already-live prefixes
					ps := make([]hashx.Prefix, len(exprs))
					for i, e := range exprs {
						ps[i] = hashx.SumPrefix(e)
					}
					err = s.AddOrphanPrefixes(list, ps)
				default: // removals (half the steps), some of absent expressions
					err = s.RemoveExpressions(list, exprs)
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}

				got, err := s.PrefixesOf(list)
				if err != nil {
					t.Fatalf("step %d: PrefixesOf: %v", step, err)
				}
				for i := 1; i < len(got); i++ {
					if got[i-1] >= got[i] {
						t.Fatalf("step %d: PrefixesOf not strictly ascending at %d: %v >= %v",
							step, i, got[i-1], got[i])
					}
				}
				if want := replayDownload(t, s, list); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: PrefixesOf has %d prefixes, chunk replay %d:\n got %v\nwant %v",
						step, len(got), len(want), got, want)
				}
				if n, err := s.ListLen(list); err != nil || n != len(got) {
					t.Fatalf("step %d: ListLen = %d, %v; want %d", step, n, err, len(got))
				}
			}
		})
	}
}
