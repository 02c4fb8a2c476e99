package sbserver

import (
	"path/filepath"
	"testing"

	"sbprivacy/internal/prefixtable"
)

// TestRunIndexBenchSmoke runs the serving-index benchmark at a tiny
// size and checks that the report it emits satisfies its own schema
// and round-trips through the strict reader. Timing numbers are not
// asserted here — CI's bench-guard job does that at a realistic size —
// but the flat design's alloc count is deterministic and gated.
func TestRunIndexBenchSmoke(t *testing.T) {
	rep, err := RunIndexBench(IndexBenchConfig{
		Sizes:   []int{500, 2000},
		Lookups: 4000,
		Seed:    42,
	})
	if err != nil {
		t.Fatalf("RunIndexBench: %v", err)
	}
	if got, want := len(rep.Results), 2; got != want {
		t.Fatalf("got %d results, want %d", got, want)
	}
	for _, res := range rep.Results {
		if res.New.LookupAllocsPerOp != 0 {
			t.Errorf("size %d: flat lookup allocs/op = %v, want 0",
				res.Prefixes, res.New.LookupAllocsPerOp)
		}
		if res.New.Design != "prefixtable" || res.Old.Design != "striped-map" {
			t.Errorf("size %d: design names %q/%q", res.Prefixes, res.Old.Design, res.New.Design)
		}
	}

	// The map model exists only for this harness: a Server's index is
	// the concrete flat design, so this assignment stops compiling if a
	// selector or a seam comes back.
	var served *flatIndex = New().idx
	if served == nil {
		t.Fatal("New() server has no serving index")
	}

	path := filepath.Join(t.TempDir(), "BENCH_prefixtable.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	back, err := prefixtable.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(back.Results) != len(rep.Results) {
		t.Fatalf("round trip lost results: %d != %d", len(back.Results), len(rep.Results))
	}
}

// TestRunIndexBenchRejectsBadConfig covers the config validation paths.
func TestRunIndexBenchRejectsBadConfig(t *testing.T) {
	if _, err := RunIndexBench(IndexBenchConfig{}); err == nil {
		t.Error("empty config: want error")
	}
	if _, err := RunIndexBench(IndexBenchConfig{Sizes: []int{0}}); err == nil {
		t.Error("zero size: want error")
	}
	if _, err := RunIndexBench(IndexBenchConfig{Sizes: []int{10, 10}, Lookups: 100}); err == nil {
		t.Error("duplicate size: want error")
	}
}
