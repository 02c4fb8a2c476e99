package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestCountsMatchesMap holds counts to the name-keyed map it replaced:
// fed the same random ids, add ends on the map's totals (ids resolved
// through a name table) in id order, shared is the size of the two key
// sets' intersection, and byCount is the report order — most counted
// first, ties by name, nil when empty.
func TestCountsMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	// Names in an order unrelated to their ids, so a report sorted by
	// name is not one sorted by id.
	names := make([]string, 25)
	for id, k := range rng.Perm(len(names)) {
		names[id] = fmt.Sprintf("site-%d.example/p", k)
	}
	if got := (counts)(nil).byCount(names); got != nil {
		t.Fatalf("empty byCount = %v, want nil", got)
	}
	for round := 0; round < 200; round++ {
		var a, b counts
		ma, mb := map[string]int{}, map[string]int{}
		for i, n := 0, rng.Intn(40); i < n; i++ {
			id, k := int32(rng.Intn(len(names))), 1+rng.Intn(3)
			a.add(id, int32(k))
			ma[names[id]] += k
			if rng.Intn(2) == 0 {
				id = int32(rng.Intn(len(names)))
				b.add(id, 1)
				mb[names[id]]++
			}
		}
		if len(a) != len(ma) || !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].id < a[j].id }) {
			t.Fatalf("round %d: %v is not %v in id order", round, a, ma)
		}
		want := make([]NameCount, 0, len(ma))
		for name, n := range ma {
			want = append(want, NameCount{Name: name, Count: n})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Count != want[j].Count {
				return want[i].Count > want[j].Count
			}
			return want[i].Name < want[j].Name
		})
		if got := a.byCount(names); len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: byCount = %v, want %v", round, got, want)
		}
		common := 0
		for name := range ma {
			if _, ok := mb[name]; ok {
				common++
			}
		}
		if got, rev := a.shared(b), b.shared(a); got != common || rev != common {
			t.Fatalf("round %d: shared = %d / %d, want %d", round, got, rev, common)
		}
	}
}
