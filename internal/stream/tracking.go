package stream

import (
	"fmt"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"sbprivacy/internal/core"
	"sbprivacy/internal/hashx"
	"sbprivacy/internal/sbserver"
)

// TrackStage is the Section 6.3 tracking system as a stage: it watches
// the probe feed for combinations of the Algorithm 1 plans' shadow
// prefixes and records a core.Event each time one probe carries at
// least two prefixes of a plan. It keeps every event (Advance is a
// no-op, like an unbounded W = 0 stage). Safe for concurrent use.
type TrackStage struct {
	// plans is fixed at construction.
	plans    []*core.TrackingPlan
	mu       sync.Mutex
	events   []core.Event
	observed int64
}

var _ Stage = (*TrackStage)(nil)

// NewTrackStage builds a tracking stage over the given plans.
func NewTrackStage(plans ...*core.TrackingPlan) *TrackStage {
	return &TrackStage{plans: append([]*core.TrackingPlan(nil), plans...)}
}

// Name implements Stage.
func (s *TrackStage) Name() string { return "tracking" }

// Observe implements Stage: it matches one probe against every plan.
// Per the paper, a client is identified "each time their servers
// receive a query with at least two prefixes present in the shadow
// database".
func (s *TrackStage) Observe(probe sbserver.Probe) {
	probeSet := make(map[hashx.Prefix]struct{}, len(probe.Prefixes))
	for _, p := range probe.Prefixes {
		probeSet[p] = struct{}{}
	}
	var events []core.Event
	for _, plan := range s.plans {
		var matched []hashx.Prefix
		targetHit := false
		colliderHit := ""
		for i, p := range plan.Prefixes {
			if _, ok := probeSet[p]; !ok {
				continue
			}
			matched = append(matched, p)
			expr := plan.Expressions[i]
			if expr == plan.Target {
				targetHit = true
			}
			for _, c := range plan.TypeIColliders {
				if expr == c {
					colliderHit = c
				}
			}
		}
		if len(matched) < 2 {
			continue
		}
		ev := core.Event{
			Time:            probe.Time,
			ClientID:        probe.ClientID,
			Target:          plan.Target,
			MatchedPrefixes: matched,
		}
		// Collider evidence outranks target evidence: a non-leaf target's
		// prefix also fires when a client visits one of its Type I
		// colliders (the target is among the collider's decompositions),
		// so a matched collider prefix is the deeper, more specific
		// observation.
		switch {
		case colliderHit != "":
			ev.Certainty = core.CertaintyCollider
			ev.URL = colliderHit
		case plan.Mode != core.TrackDomainOnly && targetHit:
			ev.Certainty = core.CertaintyExact
			ev.URL = plan.Target
		default:
			ev.Certainty = core.CertaintyDomain
			ev.URL = plan.Domain + "/"
		}
		events = append(events, ev)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observed++
	s.events = append(s.events, events...)
}

// Advance implements Stage; tracking keeps every event, so it evicts
// nothing.
func (s *TrackStage) Advance(time.Time) {}

// Snapshot implements Stage; the concrete type is TrackReport. Use
// Events for typed access.
func (s *TrackStage) Snapshot() Report { return TrackReport(s.Events()) }

// Events returns a copy of the recorded events, in feed order.
func (s *TrackStage) Events() []core.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]core.Event(nil), s.events...)
}

// Stats implements Stage: ResidentCookies counts the tracked clients.
func (s *TrackStage) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	clients := make(map[string]struct{})
	for _, e := range s.events {
		clients[e.ClientID] = struct{}{}
	}
	return Stats{Observed: s.observed, ResidentCookies: len(clients)}
}

// ShadowExpressions returns the union of all plan expressions: the
// shadow database the provider plants (as full digests, so lookups
// behave as for organic blacklist entries).
func (s *TrackStage) ShadowExpressions() []string {
	seen := make(map[string]struct{})
	var out []string
	for _, plan := range s.plans {
		for _, e := range plan.Expressions {
			if _, dup := seen[e]; !dup {
				seen[e] = struct{}{}
				out = append(out, e)
			}
		}
	}
	return out
}

// TrackReport is a TrackStage snapshot: every tracking event, in feed
// order.
type TrackReport []core.Event

// String renders one row per event: when, which cookie, the plan's
// target, the URL the observation supports, its certainty and the
// matched shadow prefixes.
func (r TrackReport) String() string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "time\tclient\ttarget\turl\tcertainty\tprefixes")
	for _, e := range r {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%v\n", e.Time.UTC().Format("2006-01-02T15:04:05.000Z"),
			e.ClientID, e.Target, e.URL, e.Certainty, e.MatchedPrefixes)
	}
	w.Flush() //nolint:errcheck // strings.Builder never fails
	return b.String()
}

// CorrelationStage is the Section 6.3 temporal correlation as a stage:
// it remembers when each client last sent each prefix and fires a rule
// once all of the rule's prefixes were seen from one client within the
// rule's window. It keeps every event (Advance is a no-op, like an
// unbounded W = 0 stage). Safe for concurrent use.
type CorrelationStage struct {
	// rules is fixed at construction.
	rules []core.CorrelationRule
	mu    sync.Mutex
	// lastSeen[client][prefix] is the most recent observation time.
	lastSeen map[string]map[hashx.Prefix]time.Time
	// fired de-duplicates (client, rule) pairs within a window.
	fired    map[string]time.Time
	events   []core.CorrelationEvent
	observed int64
}

var _ Stage = (*CorrelationStage)(nil)

// NewCorrelationStage builds a correlation stage with the given rules.
func NewCorrelationStage(rules ...core.CorrelationRule) *CorrelationStage {
	return &CorrelationStage{
		rules:    append([]core.CorrelationRule(nil), rules...),
		lastSeen: make(map[string]map[hashx.Prefix]time.Time),
		fired:    make(map[string]time.Time),
	}
}

// Name implements Stage.
func (s *CorrelationStage) Name() string { return "correlation" }

// Observe implements Stage. An event spans the sightings of the rule's
// prefixes, so it fires on a probe that carries one of them, never on
// an unrelated probe that merely arrives while they are all in window.
// A rule with no prefixes never fires.
func (s *CorrelationStage) Observe(probe sbserver.Probe) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observed++
	seen := s.lastSeen[probe.ClientID]
	if seen == nil {
		seen = make(map[hashx.Prefix]time.Time)
		s.lastSeen[probe.ClientID] = seen
	}
	for _, p := range probe.Prefixes {
		seen[p] = probe.Time
	}
	for _, rule := range s.rules {
		var first, last time.Time
		ok := len(rule.Prefixes) > 0
		for i, p := range rule.Prefixes {
			at, found := seen[p]
			if !found || probe.Time.Sub(at) > rule.Window {
				ok = false
				break
			}
			if i == 0 || at.Before(first) {
				first = at
			}
			if i == 0 || at.After(last) {
				last = at
			}
		}
		if !ok {
			continue
		}
		key := probe.ClientID + "\x00" + rule.Name
		if prev, dup := s.fired[key]; dup && last.Sub(prev) <= rule.Window {
			continue // already reported this episode
		}
		s.fired[key] = last
		s.events = append(s.events, core.CorrelationEvent{
			Rule:     rule.Name,
			ClientID: probe.ClientID,
			First:    first,
			Last:     last,
		})
	}
}

// Advance implements Stage; correlation keeps every event, so it
// evicts nothing.
func (s *CorrelationStage) Advance(time.Time) {}

// Snapshot implements Stage; the concrete type is CorrelationReport.
// Use Events for typed access.
func (s *CorrelationStage) Snapshot() Report { return CorrelationReport(s.Events()) }

// Events returns a copy of the fired events, in feed order.
func (s *CorrelationStage) Events() []core.CorrelationEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]core.CorrelationEvent(nil), s.events...)
}

// Stats implements Stage: ResidentCookies counts the clients whose
// prefix sightings are held.
func (s *CorrelationStage) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Observed: s.observed, ResidentCookies: len(s.lastSeen)}
}

// CorrelationReport is a CorrelationStage snapshot: every fired event,
// in feed order.
type CorrelationReport []core.CorrelationEvent

// String renders the rule/client/first/last table sbanalyze prints.
func (r CorrelationReport) String() string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "rule\tclient\tfirst\tlast")
	for _, e := range r {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", e.Rule, e.ClientID,
			e.First.UTC().Format("2006-01-02T15:04:05Z"),
			e.Last.UTC().Format("2006-01-02T15:04:05Z"))
	}
	w.Flush() //nolint:errcheck // strings.Builder never fails
	return b.String()
}
