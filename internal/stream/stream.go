//sbcheck:deterministic

// Package stream is the provider's analysis pipeline: it scores a
// probe feed incrementally, at ingest speed, and is the one design
// every analysis of the feed runs on — windowed with bounded memory,
// or unbounded (W = 0) over a whole retained log.
//
// Analyses are stages. A Stage consumes probes one at a time
// (Observe), tracks a virtual-time watermark (Advance), and can render
// its current conclusions at any moment (Snapshot). State is keyed by
// UTC calendar day and bounded by a sliding window of W days: when the
// watermark enters a new day, every day older than the window horizon
// is evicted — deterministically, so two same-seed runs over the same
// probe feed hold identical resident state and produce identical
// snapshots, including past the horizon. At W = 0 nothing is evicted
// (the batch semantics), and a stage whose report merges the days
// keeps one tally per cookie. Each stage accounts for its own resident
// state (Stats.ResidentCookies, ResidentDays, EvictedRecords), which
// is what lets a dashboard prove the memory bound instead of asserting
// it. The Section 6.3 stages, TrackStage and CorrelationStage, keep no
// day state: they record every event they fire, like a W = 0 stage.
//
// A Pipeline fans one probe feed into N stages and implements
// sbserver.ProbeSink, so the same pipeline is drivable from three
// sources: subscribed live to a serving sbserver, batch over a sealed
// store via Replay, or tailing a live store via Follow. The
// correctness anchor: over the same probes, the drivers agree, and a
// windowed snapshot deep-equals an unbounded run fed only the window's
// probes — the scoring cores (core.ClientTally, core.DayTally,
// core.BuildClientReport, core.BuildLongitudinalReport) are shared, so
// the two cannot drift apart.
package stream

import (
	"sync"
	"time"

	"sbprivacy/internal/core"
	"sbprivacy/internal/sbserver"
)

// Report is a stage's point-in-time output. Concrete stages return
// their domain report (e.g. *core.Report, *core.LongitudinalReport);
// String renders it the way sbanalyze prints it, which is what makes a
// live snapshot textually comparable to a replay.
type Report interface {
	String() string
}

// Stats is one stage's state-size accounting: the evidence that the
// windowed state is actually bounded. All counters are cumulative
// except the Resident* gauges, which describe the state held right
// now.
type Stats struct {
	// Observed counts probes tallied into resident state.
	Observed int64
	// LateDropped counts probes rejected on arrival because their day
	// had already been evicted (older than the window horizon at the
	// time they arrived). A serialized feed in virtual-time order never
	// drops anything.
	LateDropped int64
	// ResidentCookies is the number of distinct client cookies with at
	// least one resident day tally.
	ResidentCookies int
	// ResidentDays is the number of day buckets currently resident;
	// bounded by the configured window.
	ResidentDays int
	// EvictedRecords counts probes whose tallies have been discarded by
	// day eviction since the stage started.
	EvictedRecords int64
}

// Stage is one incremental analyzer in a pipeline. Implementations
// must be safe for concurrent use: Observe/Advance arrive from the
// feeding goroutine while Snapshot/Stats are called from a dashboard.
// Deterministic snapshots additionally require a serialized feed (a
// campaign run, a Replay, or a Follow tail — all of which deliver
// probes one at a time in stored order).
type Stage interface {
	// Name identifies the stage in dashboards and snapshots.
	Name() string
	// Observe tallies one probe into the stage's windowed state. A
	// probe whose day already fell past the eviction horizon is counted
	// as late and otherwise ignored.
	Observe(p sbserver.Probe)
	// Advance moves the stage's virtual-time watermark to t (monotonic:
	// an older t is a no-op) and evicts every day bucket that fell out
	// of the window. The pipeline calls it with each probe's timestamp
	// before the probe is tallied.
	Advance(t time.Time)
	// Snapshot renders the stage's conclusions over its resident state.
	// It is a pure function of that state: equal resident state yields
	// deeply equal reports.
	Snapshot() Report
	// Stats reports the stage's resident-state accounting.
	Stats() Stats
}

// Pipeline fans one probe feed into N stages. It implements
// sbserver.ProbeSink, so it can subscribe to a live server like any
// other sink; Replay and Follow drive it from a store.
//
// The built-in stages all begin by scoring the probe against their
// index (core.Index.Score), so the pipeline does that once per probe
// per distinct index and hands every built-in stage the result; any
// other Stage —
// a wrapper around a built-in one included — is driven through
// Stage.Observe and scores for itself.
type Pipeline struct {
	stages []Stage
	// scored[i] is stages[i] when it is a built-in stage, with the slot
	// of its index in indexes; the zero value marks a foreign stage.
	scored  []scoredSlot
	indexes []*core.Index
	mu      sync.Mutex
	// results[k] is indexes[k]'s Score of the probe being observed;
	// scratch, valid only under mu.
	results  []core.Score
	observed int64
}

// scoredStage is the hand-off the pipeline shares a Score through.
// Each built-in stage's Observe is this method applied to its own
// index's Score, so the two entry points cannot diverge.
type scoredStage interface {
	observeScored(p sbserver.Probe, s core.Score)
}

type scoredSlot struct {
	stage scoredStage
	slot  int
}

var _ sbserver.ProbeSink = (*Pipeline)(nil)

// NewPipeline builds a pipeline over the given stages.
func NewPipeline(stages ...Stage) *Pipeline {
	pl := &Pipeline{stages: stages, scored: make([]scoredSlot, len(stages))}
	for i, s := range stages {
		// Exact types only: a type that embeds a built-in stage inherits
		// observeScored, but it overrides Observe to be called.
		switch s := s.(type) {
		case *ReidentStage:
			pl.scored[i] = scoredSlot{s, pl.slotFor(s.x)}
		case *LinkageStage:
			pl.scored[i] = scoredSlot{s, pl.slotFor(s.x)}
		}
	}
	pl.results = make([]core.Score, len(pl.indexes))
	return pl
}

// slotFor returns x's position in pl.indexes, adding it if new.
func (pl *Pipeline) slotFor(x *core.Index) int {
	for k, have := range pl.indexes {
		if have == x {
			return k
		}
	}
	pl.indexes = append(pl.indexes, x)
	return len(pl.indexes) - 1
}

// Observe implements sbserver.ProbeSink: the probe is re-identified
// once per distinct index, then its timestamp advances each stage's
// watermark (evicting expired state) before that stage tallies it.
// Stages are themselves concurrency-safe; the pipeline's own lock
// protects its probe counter and scratch results and keeps one probe's
// advance-then-observe pair adjacent per stage under a serialized
// feed.
func (pl *Pipeline) Observe(p sbserver.Probe) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.observed++
	for k, x := range pl.indexes {
		pl.results[k] = x.Score(p.Prefixes)
	}
	for i, s := range pl.stages {
		s.Advance(p.Time)
		if sc := pl.scored[i]; sc.stage != nil {
			sc.stage.observeScored(p, pl.results[sc.slot])
		} else {
			s.Observe(p)
		}
	}
}

// Observed returns the number of probes fanned out so far.
func (pl *Pipeline) Observed() int64 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.observed
}

// Stages returns the pipeline's stages in fan-out order (shared slice;
// do not mutate).
func (pl *Pipeline) Stages() []Stage { return pl.stages }

// StageSnapshot pairs one stage's report with its state accounting —
// one dashboard panel.
type StageSnapshot struct {
	// Name is the stage's name.
	Name string
	// Report is the stage's current conclusions.
	Report Report
	// Stats is the stage's resident-state accounting at snapshot time.
	Stats Stats
}

// Snapshot captures every stage's report and stats, in fan-out order.
// Each stage snapshots atomically with respect to its own Observe;
// under a serialized feed the whole capture is one consistent frame.
func (pl *Pipeline) Snapshot() []StageSnapshot {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	out := make([]StageSnapshot, len(pl.stages))
	for i, s := range pl.stages {
		out[i] = StageSnapshot{Name: s.Name(), Report: s.Snapshot(), Stats: s.Stats()}
	}
	return out
}
