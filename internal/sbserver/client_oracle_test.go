package sbserver_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/prefixdb"
	"sbprivacy/internal/sbclient"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/wire"
)

// readStore is a client prefix store whose contents a test can read.
type readStore interface {
	prefixdb.Updatable
	Snapshot() []hashx.Prefix
}

// TestClientStoresMatchPrefixesOf is the client leg of the list oracle:
// the steps of TestPrefixSetMatchesChunkReplay run against a server
// that clients sync over LocalTransport, one client per store kind.
// After every step each of them updates, and each of its stores must
// hold exactly the list's PrefixesOf: applying the add and sub chunks
// of every update in order converges on the server's live set, orphans
// and retirements included.
//
// Two more clients keep DeltaStores. A lagging client syncs only every
// k-th step (k from 2 to 8, drawn from the seed), so one download
// carries several steps' chunks, adds and subs of one prefix among
// them (at least one download across the seeds must); whenever it
// syncs, its stores must equal PrefixesOf. A
// restarted client is rebuilt every 50 steps from its own SaveState
// through LoadState and keeps syncing; after every step its SaveState
// bytes must equal the delta client's.
func TestClientStoresMatchPrefixesOf(t *testing.T) {
	t.Parallel()
	kinds := []struct {
		name     string
		newStore func() readStore
	}{
		{"delta", func() readStore { return prefixdb.NewDeltaStore(nil) }},
	}
	var overlaps atomic.Int64
	t.Cleanup(func() {
		if overlaps.Load() == 0 {
			t.Error("no download to a lagging client carried an add and a sub of one prefix")
		}
	})
	for _, seed := range []int64{1, 2, 3, 2015} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			s := sbserver.New()
			for _, list := range sbserver.OracleLists {
				if err := s.CreateList(list, list); err != nil {
					t.Fatalf("CreateList: %v", err)
				}
			}
			// storeFactory builds stores with newStore and keeps each in *into.
			storeFactory := func(into *[]readStore, newStore func() readStore) sbclient.Option {
				return sbclient.WithStoreFactory(func() prefixdb.Updatable {
					st := newStore()
					*into = append(*into, st)
					return st
				})
			}
			checkStores := func(when, who string, stores []readStore) {
				t.Helper()
				for li, list := range sbserver.OracleLists {
					want, err := s.PrefixesOf(list)
					if err != nil {
						t.Fatalf("%s: PrefixesOf(%s): %v", when, list, err)
					}
					if got := stores[li].Snapshot(); !slices.Equal(got, want) {
						t.Fatalf("%s: %s store of %s has %d prefixes, PrefixesOf %d:\n got %v\nwant %v",
							when, who, list, len(got), len(want), got, want)
					}
				}
			}

			clients := make([]*sbclient.Client, len(kinds))
			stores := make([][]readStore, len(kinds))
			var delta *sbclient.Client
			for k, kind := range kinds {
				clients[k] = sbclient.New(sbclient.LocalTransport{Server: s}, sbserver.OracleLists,
					storeFactory(&stores[k], kind.newStore))
				if kind.name == "delta" {
					delta = clients[k]
				}
			}
			newDelta := func() readStore { return prefixdb.NewDeltaStore(nil) }
			lag := 2 + rand.New(rand.NewSource(seed)).Intn(7)
			lagTransport := &overlapCounter{Transport: sbclient.LocalTransport{Server: s}}
			var lagStores []readStore
			lagging := sbclient.New(lagTransport, sbserver.OracleLists, storeFactory(&lagStores, newDelta))
			restarted := sbclient.New(sbclient.LocalTransport{Server: s}, sbserver.OracleLists)

			step := sbserver.OracleSteps(seed)
			for i := 0; i < 600; i++ {
				if err := step(s); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				when := fmt.Sprintf("step %d", i)
				for k, kind := range kinds {
					if err := clients[k].Update(ctx, true); err != nil {
						t.Fatalf("%s: %s client Update: %v", when, kind.name, err)
					}
					checkStores(when, kind.name, stores[k])
				}

				if (i+1)%lag == 0 {
					if err := lagging.Update(ctx, true); err != nil {
						t.Fatalf("%s: lagging client Update: %v", when, err)
					}
					checkStores(when, fmt.Sprintf("lagging (every %d steps)", lag), lagStores)
				}

				if i > 0 && i%50 == 0 {
					state := saveState(t, restarted)
					restarted = sbclient.New(sbclient.LocalTransport{Server: s}, sbserver.OracleLists)
					if err := restarted.LoadState(bytes.NewReader(state)); err != nil {
						t.Fatalf("%s: LoadState: %v", when, err)
					}
				}
				if err := restarted.Update(ctx, true); err != nil {
					t.Fatalf("%s: restarted client Update: %v", when, err)
				}
				if got, want := saveState(t, restarted), saveState(t, delta); !bytes.Equal(got, want) {
					t.Fatalf("%s: restarted client's state (%d bytes) differs from the delta client's (%d bytes)",
						when, len(got), len(want))
				}
			}
			t.Logf("lagging client (every %d steps): %d downloads add and sub one prefix", lag, lagTransport.overlaps)
			overlaps.Add(int64(lagTransport.overlaps))
		})
	}
}

// saveState returns c's SaveState bytes.
func saveState(t *testing.T, c *sbclient.Client) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.SaveState(&buf); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	return buf.Bytes()
}

// overlapCounter counts the downloads whose chunks add and sub the same
// prefix in one list.
type overlapCounter struct {
	sbclient.Transport
	overlaps int
}

func (o *overlapCounter) Download(ctx context.Context, req *wire.DownloadRequest) (*wire.DownloadResponse, error) {
	resp, err := o.Transport.Download(ctx, req)
	if err != nil {
		return nil, err
	}
	type key struct {
		list   string
		prefix hashx.Prefix
	}
	seen := make(map[key]wire.ChunkType)
	for _, c := range resp.Chunks {
		for _, p := range c.Prefixes {
			k := key{c.List, p}
			if prev, ok := seen[k]; ok && prev != c.Type {
				o.overlaps++
				return resp, nil
			}
			seen[k] = c.Type
		}
	}
	return resp, nil
}
