package prefixdb

import (
	"math/rand"
	"testing"

	"sbprivacy/internal/hashx"
)

// TestStatefulDifferential drives DeltaStore through long random
// sequences of Apply operations and checks, after every step, that it
// agrees with a reference map — the strongest correctness
// argument for the update path that real blacklist churn exercises.
func TestStatefulDifferential(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(string(rune('a'+seed)), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			delta := NewDeltaStore(nil)
			ref := make(map[hashx.Prefix]struct{})

			const space = 2000 // small space forces add/remove collisions
			randomBatch := func(n int) []hashx.Prefix {
				out := make([]hashx.Prefix, n)
				for i := range out {
					out[i] = hashx.Prefix(rng.Intn(space))
				}
				return out
			}

			for step := 0; step < 60; step++ {
				add := randomBatch(rng.Intn(30))
				remove := randomBatch(rng.Intn(15))
				delta.Apply(add, remove)

				drop := make(map[hashx.Prefix]struct{}, len(remove))
				for _, p := range remove {
					drop[p] = struct{}{}
				}
				for _, p := range remove {
					delete(ref, p)
				}
				for _, p := range add {
					if _, gone := drop[p]; !gone {
						ref[p] = struct{}{}
					}
				}

				if delta.Len() != len(ref) {
					t.Fatalf("step %d: len %d, ref %d", step, delta.Len(), len(ref))
				}
				// Probe a sample of the space.
				for i := 0; i < 200; i++ {
					p := hashx.Prefix(rng.Intn(space))
					_, want := ref[p]
					if delta.Contains(p) != want {
						t.Fatalf("step %d: delta.Contains(%v) != %v", step, p, want)
					}
				}
			}
		})
	}
}
