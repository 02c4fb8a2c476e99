package stream

import (
	"sync"
	"time"

	"sbprivacy/internal/core"
	"sbprivacy/internal/sbserver"
)

// LinkageStage is the streaming form of core.Longitudinal: day-over-
// day cookie linkage over a sliding window of UTC days. State is one
// core.DayTally per (day, cookie) — exactly the batch correlator's
// state restricted to the window — and Snapshot runs the shared
// core.BuildLongitudinalReport over it, so the streamed report
// deep-equals a batch Longitudinal fed only the window's probes. Safe
// for concurrent use.
type LinkageStage struct {
	x   *core.Index
	cfg core.LongitudinalConfig
	mu  sync.Mutex
	w   windowed[core.DayTally]
}

var _ Stage = (*LinkageStage)(nil)

// NewLinkageStage builds a windowed day-over-day linkage stage over
// the provider's web index with the given linkage thresholds.
// windowDays bounds resident state to the newest windowDays UTC days;
// 0 keeps everything (batch semantics). Note that linkage needs at
// least two resident days to link across, so windows below 2 report
// days but never links.
func NewLinkageStage(x *core.Index, cfg core.LongitudinalConfig, windowDays int) *LinkageStage {
	return &LinkageStage{x: x, cfg: cfg, w: newWindowed[core.DayTally](windowDays, false)}
}

// Name implements Stage.
func (s *LinkageStage) Name() string { return "linkage" }

// Observe implements Stage: the probe is re-identified against the
// index (outside the lock, like the batch Longitudinal) and tallied
// under its (day, cookie) bucket.
func (s *LinkageStage) Observe(p sbserver.Probe) {
	s.observeScored(p, s.x.Score(p.Prefixes))
}

// observeScored implements scoredStage: it tallies p given sc, the
// stage's index's Score of p.Prefixes.
func (s *LinkageStage) observeScored(p sbserver.Probe, sc core.Score) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.w.bucket(core.UnixDay(p.Time), p.ClientID, core.NewDayTally)
	if !ok {
		return
	}
	t.Observe(sc)
}

// Advance implements Stage: raises the watermark to t's UTC day and
// evicts days that fell out of the window.
func (s *LinkageStage) Advance(t time.Time) {
	day := core.UnixDay(t)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.w.advance(day, (*core.DayTally).Probes)
}

// Snapshot implements Stage; the concrete type is
// *core.LongitudinalReport. Use Report for typed access.
func (s *LinkageStage) Snapshot() Report { return s.Report() }

// Report runs the shared day-over-day report builder over the resident
// days: per-day activity, greedy linkage, identity chains.
func (s *LinkageStage) Report() *core.LongitudinalReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return core.BuildLongitudinalReport(s.x, s.w.days, s.cfg)
}

// Stats implements Stage.
func (s *LinkageStage) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.snapshotStats()
}
