package stream

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"sbprivacy/internal/core"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/workload"
)

// captureSink keeps every probe a campaign run emits, in order.
type captureSink struct {
	mu     sync.Mutex
	probes []sbserver.Probe
}

func (c *captureSink) Observe(p sbserver.Probe) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.probes = append(c.probes, p)
}

// campaignFeed runs a seeded campaign through the real client/server
// stack and returns its web index and the probe feed in schedule order.
func campaignFeed(tb testing.TB, clients, days int, seed int64) (*core.Index, []sbserver.Probe) {
	tb.Helper()
	camp, err := workload.Generate(workload.Config{Days: days, Clients: clients, Seed: seed})
	if err != nil {
		tb.Fatalf("Generate: %v", err)
	}
	var sink captureSink
	if _, err := camp.Run(context.Background(), &sink); err != nil {
		tb.Fatalf("Run: %v", err)
	}
	if len(sink.probes) == 0 {
		tb.Fatal("campaign produced no probes")
	}
	return core.NewIndex(camp.IndexExpressions()), sink.probes
}

// embedWrap is the shape of bench/'s spanStage: a foreign stage that
// embeds the Stage interface, so only the five public methods reach the
// stage inside.
type embedWrap struct {
	Stage
	observed int
}

func (w *embedWrap) Observe(p sbserver.Probe) {
	w.observed++
	w.Stage.Observe(p)
}

// publicPath feeds the stages probe by probe through the public Stage
// contract, the way a foreign pipeline would, and frames the result
// like Pipeline.Snapshot.
func publicPath(probes []sbserver.Probe, stages ...Stage) []StageSnapshot {
	for _, p := range probes {
		for _, s := range stages {
			s.Advance(p.Time)
			s.Observe(p)
		}
	}
	out := make([]StageSnapshot, len(stages))
	for i, s := range stages {
		out[i] = StageSnapshot{Name: s.Name(), Report: s.Snapshot(), Stats: s.Stats()}
	}
	return out
}

func diffSnapshots(t *testing.T, label string, got, want []StageSnapshot) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d stage snapshots, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Stats != want[i].Stats {
			t.Errorf("%s: stage %q stats %+v, want %+v", label, want[i].Name, got[i].Stats, want[i].Stats)
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: stage %q snapshot diverges from the public path", label, want[i].Name)
		}
	}
}

// TestSharedScoringMatchesPublicPath: the pipeline's shared
// re-identification is an optimisation of Advance+Observe, never a
// second definition. Over a campaign feed, at W = 0 and W = 7, a
// pipeline of the two built-in stages — bare, or with either or both
// wrapped the way bench/ wraps them — snapshots and accounts exactly
// like the same stages driven through their public methods.
func TestSharedScoringMatchesPublicPath(t *testing.T) {
	t.Parallel()
	x, probes := campaignFeed(t, 200, 10, 5)
	bare := func(s Stage) Stage { return s }
	wrap := func(s Stage) Stage { return &embedWrap{Stage: s} }
	shapes := []struct {
		name         string
		first, later func(Stage) Stage
	}{
		{"bare", bare, bare},
		{"first wrapped", wrap, bare},
		{"second wrapped", bare, wrap},
		{"both wrapped", wrap, wrap},
	}
	for _, window := range []int{0, 7} {
		want := publicPath(probes,
			NewReidentStage(x, window), NewLinkageStage(x, core.LongitudinalConfig{}, window))
		if window > 0 && want[0].Stats.EvictedRecords == 0 {
			t.Fatalf("W=%d: feed never crossed the eviction horizon: %+v", window, want[0].Stats)
		}
		for _, sh := range shapes {
			pl := NewPipeline(
				sh.first(NewReidentStage(x, window)),
				sh.later(NewLinkageStage(x, core.LongitudinalConfig{}, window)))
			for _, p := range probes {
				pl.Observe(p)
			}
			label := fmt.Sprintf("W=%d, %s", window, sh.name)
			diffSnapshots(t, label, pl.Snapshot(), want)

			// The comparison above means something only if the bare
			// stages really took the shared path and the wrapped ones
			// really took Observe.
			for i, s := range pl.Stages() {
				w, wrapped := s.(*embedWrap)
				if shared := pl.scored[i].stage != nil; shared == wrapped {
					t.Errorf("%s: stage %d shared=%v, wrapped=%v", label, i, shared, wrapped)
				}
				if wrapped && w.observed != len(probes) {
					t.Errorf("%s: wrapper %d saw %d Observe calls, want %d", label, i, w.observed, len(probes))
				}
			}
			if len(pl.indexes) > 1 {
				t.Errorf("%s: %d indexes scored per probe, want at most 1", label, len(pl.indexes))
			}
		}
	}
}

// overrideStage embeds the concrete built-in stage — so it inherits
// the unexported hand-off — and overrides Observe. The pipeline must
// still call the override.
type overrideStage struct {
	*ReidentStage
	observed int
}

func (o *overrideStage) Observe(p sbserver.Probe) {
	o.observed++
	o.ReidentStage.Observe(p)
}

// TestPipelineScoresPerIndex: stages on different indexes in one
// pipeline each get their own index's answer, and a stage type that
// embeds a built-in one keeps its Observe.
func TestPipelineScoresPerIndex(t *testing.T) {
	t.Parallel()
	full := testIndex()
	// Without the rest of news.example, a visit to its root is an exact
	// hit here and an ambiguous same-domain one in the full index.
	sparse := core.NewIndex([]string{"news.example/", "shop.example/cart"})
	probes := scrollProbes(6)

	over := &overrideStage{ReidentStage: NewReidentStage(full, 3)}
	pl := NewPipeline(
		NewReidentStage(full, 3),
		NewReidentStage(sparse, 3),
		NewLinkageStage(sparse, core.LongitudinalConfig{}, 3),
		over,
	)
	for _, p := range probes {
		pl.Observe(p)
	}
	got := pl.Snapshot()
	want := publicPath(probes,
		NewReidentStage(full, 3),
		NewReidentStage(sparse, 3),
		NewLinkageStage(sparse, core.LongitudinalConfig{}, 3),
		NewReidentStage(full, 3),
	)
	diffSnapshots(t, "two indexes", got, want)
	if reflect.DeepEqual(got[0].Report, got[1].Report) {
		t.Fatal("bad scenario: both indexes re-identify the feed identically")
	}
	if len(pl.indexes) != 2 {
		t.Errorf("pipeline scores against %d indexes, want 2", len(pl.indexes))
	}
	if over.observed != len(probes) {
		t.Errorf("embedding stage's Observe called %d times, want %d", over.observed, len(probes))
	}
}

// TestPipelineObserveAllocs pins the replay hot loop's steady state: a
// probe whose (day, cookie) bucket is resident and whose URL or domain
// the tallies already count allocates nothing, windowed or not.
func TestPipelineObserveAllocs(t *testing.T) {
	x := testIndex()
	exact := probeFor("c", day(0, 9), "news.example/world")
	domain := probeFor("c", day(0, 10), "news.example/")
	for _, window := range []int{0, 28} {
		pl, _, _ := newTestPipeline(x, window)
		pl.Observe(exact)
		pl.Observe(domain)
		allocs := testing.AllocsPerRun(1000, func() {
			pl.Observe(exact)
			pl.Observe(domain)
		})
		if allocs != 0 {
			t.Errorf("W=%d: %v allocs per two resident probes, want 0", window, allocs)
		}
	}
}

// BenchmarkPipelineObserve is the replay hot loop without the store: a
// captured campaign feed through the two built-in stages, unbounded
// (the path replay, follow, the campaign and the ablation lab run) and
// at the benchmark's 28-day window. ns/op and allocs/op are per probe.
func BenchmarkPipelineObserve(b *testing.B) {
	x, probes := campaignFeed(b, 300, 14, 9)
	for _, window := range []int{0, 28} {
		b.Run(fmt.Sprintf("W=%d", window), func(b *testing.B) {
			b.ReportAllocs()
			for done := 0; done < b.N; {
				// A fresh pipeline per pass keeps virtual time monotonic,
				// so no pass degenerates into late drops.
				pl := NewPipeline(NewReidentStage(x, window), NewLinkageStage(x, core.LongitudinalConfig{}, window))
				for i := 0; i < len(probes) && done < b.N; i++ {
					pl.Observe(probes[i])
					done++
				}
			}
		})
	}
}

var snapshotSink []StageSnapshot

// BenchmarkPipelineSnapshot is the end of a replay: the two built-in
// stages' Snapshot over a resident 28-day window of a captured campaign
// feed, which renders every tally's names and runs day-over-day
// linkage. ns/op and allocs/op are per Snapshot.
func BenchmarkPipelineSnapshot(b *testing.B) {
	x, probes := campaignFeed(b, 300, 28, 9)
	pl := NewPipeline(NewReidentStage(x, 28), NewLinkageStage(x, core.LongitudinalConfig{}, 28))
	for _, p := range probes {
		pl.Observe(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshotSink = pl.Snapshot()
	}
}
