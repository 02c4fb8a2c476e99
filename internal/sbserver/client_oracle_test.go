package sbserver_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/prefixdb"
	"sbprivacy/internal/sbclient"
	"sbprivacy/internal/sbserver"
)

// snapshotStore is a client prefix store whose contents a test can read.
type snapshotStore interface {
	prefixdb.Updatable
	Snapshot() []hashx.Prefix
}

// TestClientStoresMatchPrefixesOf is the client leg of the list oracle:
// the steps of TestPrefixSetMatchesChunkReplay run against a server
// that two clients sync over LocalTransport, one keeping its lists in
// SortedSets and one in DeltaStores. After every step each client
// updates, and each of its stores must hold exactly the list's
// PrefixesOf: applying the add and sub chunks of every update in order
// converges on the server's live set, orphans and retirements
// included.
func TestClientStoresMatchPrefixesOf(t *testing.T) {
	t.Parallel()
	kinds := []struct {
		name     string
		newStore func() snapshotStore
	}{
		{"sorted", func() snapshotStore { return prefixdb.NewSortedSet(nil) }},
		{"delta", func() snapshotStore { return prefixdb.NewDeltaStore(nil) }},
	}
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
			clients := make([]*sbclient.Client, len(kinds))
			stores := make([][]snapshotStore, len(kinds))
			for k, kind := range kinds {
				k, kind := k, kind
				clients[k] = sbclient.New(sbclient.LocalTransport{Server: s}, sbserver.OracleLists,
					sbclient.WithStoreFactory(func() prefixdb.Updatable {
						st := kind.newStore()
						stores[k] = append(stores[k], st)
						return st
					}))
			}
			step := sbserver.OracleSteps(seed)
			for i := 0; i < 600; i++ {
				if err := step(s); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				for k, kind := range kinds {
					if err := clients[k].Update(ctx, true); err != nil {
						t.Fatalf("step %d: %s client Update: %v", i, kind.name, err)
					}
					for li, list := range sbserver.OracleLists {
						want, err := s.PrefixesOf(list)
						if err != nil {
							t.Fatalf("step %d: PrefixesOf(%s): %v", i, list, err)
						}
						if got := stores[k][li].Snapshot(); !slices.Equal(got, want) {
							t.Fatalf("step %d: %s store of %s has %d prefixes, PrefixesOf %d:\n got %v\nwant %v",
								i, kind.name, list, len(got), len(want), got, want)
						}
					}
				}
			}
		})
	}
}
