package stream

import (
	"sync"
	"time"

	"sbprivacy/internal/core"
	"sbprivacy/internal/sbserver"
)

// ReidentStage is the paper's multi-prefix re-identification (Section
// 6.1) per client cookie, over a sliding window of UTC days: each
// probe's prefix set is resolved against the provider's web index and
// the outcome tallied under the probe's cookie. State is one
// core.ClientTally per (day, cookie); Snapshot merges the resident
// days per cookie — tallies are additive, so the merged report
// deep-equals a single tally per cookie over exactly the window's
// probes. Unbounded (W = 0) the stage never evicts, so it keeps that
// single tally per cookie from the start. Safe for concurrent use.
type ReidentStage struct {
	x  *core.Index
	mu sync.Mutex
	w  windowed[core.ClientTally]
}

var _ Stage = (*ReidentStage)(nil)

// NewReidentStage builds a windowed re-identification stage over the
// provider's web index. windowDays bounds resident state to the newest
// windowDays UTC days; 0 keeps everything (batch semantics).
func NewReidentStage(x *core.Index, windowDays int) *ReidentStage {
	return &ReidentStage{x: x, w: newWindowed[core.ClientTally](windowDays, true)}
}

// Name implements Stage.
func (s *ReidentStage) Name() string { return "reident" }

// Observe implements Stage: the probe is re-identified against the
// index (outside the lock) and tallied under its (day, cookie) bucket.
func (s *ReidentStage) Observe(p sbserver.Probe) {
	s.observeScored(p, s.x.Score(p.Prefixes))
}

// observeScored implements scoredStage: it tallies p given sc, the
// stage's index's Score of p.Prefixes.
func (s *ReidentStage) observeScored(p sbserver.Probe, sc core.Score) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.w.bucket(core.UnixDay(p.Time), p.ClientID, core.NewClientTally)
	if !ok {
		return
	}
	t.Observe(sc, len(p.Prefixes))
}

// Advance implements Stage: raises the watermark to t's UTC day and
// evicts days that fell out of the window.
func (s *ReidentStage) Advance(t time.Time) {
	day := core.UnixDay(t)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.w.advance(day, (*core.ClientTally).Probes)
}

// Snapshot implements Stage; the concrete type is *core.Report. Use
// Report for typed access.
func (s *ReidentStage) Snapshot() Report { return s.Report() }

// Report merges the resident day tallies per cookie and renders them
// as the per-client report. Merging is commutative, so the result is
// independent of map iteration order; days are folded oldest-first
// regardless.
func (s *ReidentStage) Report() *core.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	days := s.w.sortedDays()
	if len(days) == 1 {
		return core.BuildClientReport(s.x, s.w.days[days[0]])
	}
	merged := make(map[string]*core.ClientTally)
	for _, d := range days {
		for c, t := range s.w.days[d] {
			m := merged[c]
			if m == nil {
				m = core.NewClientTally()
				merged[c] = m
			}
			m.MergeFrom(t)
		}
	}
	return core.BuildClientReport(s.x, merged)
}

// Stats implements Stage.
func (s *ReidentStage) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.snapshotStats()
}
