package core_test

import (
	"testing"
	"time"

	"sbprivacy/internal/core"
	"sbprivacy/internal/hashx"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/stream"
)

// probeAt builds a probe at a Unix second (the same helper as the
// in-package tests').
func probeAt(sec int64, client string, prefixes ...hashx.Prefix) sbserver.Probe {
	return sbserver.Probe{
		Time:     time.Unix(sec, 0),
		ClientID: client,
		Prefixes: prefixes,
	}
}

// TestCorrelatorPaperExample reproduces Section 6.3's closing scenario: a
// client querying the CFP prefix (0xe70ee6d1) and the submission-site
// prefix in a short period is planning to submit a paper.
func TestCorrelatorPaperExample(t *testing.T) {
	t.Parallel()
	cfp := hashx.SumPrefix("petsymposium.org/2016/cfp.php")
	submission := hashx.SumPrefix("petsymposium.org/2016/submission/")
	rule := core.CorrelationRule{
		Name:     "pets-author",
		Prefixes: []hashx.Prefix{cfp, submission},
		Window:   time.Hour,
	}
	c := stream.NewCorrelationStage(rule)

	c.Observe(probeAt(1000, "author", cfp))
	if len(c.Events()) != 0 {
		t.Fatal("rule fired on first prefix alone")
	}
	c.Observe(probeAt(1300, "author", submission))
	events := c.Events()
	if len(events) != 1 {
		t.Fatalf("events = %+v", events)
	}
	if events[0].Rule != "pets-author" || events[0].ClientID != "author" {
		t.Errorf("event = %+v", events[0])
	}
	if !events[0].First.Equal(time.Unix(1000, 0)) || !events[0].Last.Equal(time.Unix(1300, 0)) {
		t.Errorf("span = %v..%v", events[0].First, events[0].Last)
	}
}

// TestCorrelatorWindowExpiry: prefixes further apart than the window do
// not correlate.
func TestCorrelatorWindowExpiry(t *testing.T) {
	t.Parallel()
	rule := core.NewCorrelationRule("visit-both", time.Minute,
		"a.example/", "b.example/")
	c := stream.NewCorrelationStage(rule)
	c.Observe(probeAt(0, "u", hashx.SumPrefix("a.example/")))
	c.Observe(probeAt(120, "u", hashx.SumPrefix("b.example/")))
	if len(c.Events()) != 0 {
		t.Errorf("rule fired across an expired window: %+v", c.Events())
	}
	// A fresh pair within the window fires.
	c.Observe(probeAt(130, "u", hashx.SumPrefix("a.example/")))
	if len(c.Events()) != 1 {
		t.Errorf("rule missed in-window pair: %+v", c.Events())
	}
}

// TestCorrelatorPerClientIsolation: prefixes from different cookies never
// correlate — the SB cookie is what links the queries.
func TestCorrelatorPerClientIsolation(t *testing.T) {
	t.Parallel()
	rule := core.NewCorrelationRule("visit-both", time.Hour,
		"a.example/", "b.example/")
	c := stream.NewCorrelationStage(rule)
	c.Observe(probeAt(0, "u1", hashx.SumPrefix("a.example/")))
	c.Observe(probeAt(10, "u2", hashx.SumPrefix("b.example/")))
	if len(c.Events()) != 0 {
		t.Errorf("cross-client correlation: %+v", c.Events())
	}
}

// TestCorrelatorDeduplicatesEpisode: repeated probes within one episode
// fire once.
func TestCorrelatorDeduplicatesEpisode(t *testing.T) {
	t.Parallel()
	a, b := hashx.SumPrefix("a.example/"), hashx.SumPrefix("b.example/")
	rule := core.CorrelationRule{Name: "r", Prefixes: []hashx.Prefix{a, b}, Window: time.Hour}
	c := stream.NewCorrelationStage(rule)
	c.Observe(probeAt(0, "u", a, b))
	c.Observe(probeAt(10, "u", a))
	c.Observe(probeAt(20, "u", b))
	if got := len(c.Events()); got != 1 {
		t.Errorf("events = %d, want 1 (episode dedup)", got)
	}
}

// TestCorrelatorSingleProbeAllPrefixes: one multi-prefix probe can
// satisfy a rule alone.
func TestCorrelatorSingleProbeAllPrefixes(t *testing.T) {
	t.Parallel()
	a, b := hashx.SumPrefix("x.example/"), hashx.SumPrefix("x.example/page")
	rule := core.CorrelationRule{Name: "multi", Prefixes: []hashx.Prefix{a, b}, Window: time.Minute}
	c := stream.NewCorrelationStage(rule)
	c.Observe(probeAt(5, "u", a, b))
	events := c.Events()
	if len(events) != 1 {
		t.Fatalf("events = %+v", events)
	}
	if !events[0].First.Equal(events[0].Last) {
		t.Errorf("single-probe span = %v..%v", events[0].First, events[0].Last)
	}
}

// TestCorrelatorIgnoresUnrelatedProbe: an event spans the rule
// prefixes' sightings, so a probe carrying none of them fires nothing,
// even once the episode it falls in is older than the window.
func TestCorrelatorIgnoresUnrelatedProbe(t *testing.T) {
	t.Parallel()
	a, b := hashx.SumPrefix("a.example/"), hashx.SumPrefix("b.example/")
	x := hashx.SumPrefix("x.example/")
	rule := core.CorrelationRule{Name: "r", Prefixes: []hashx.Prefix{a, b}, Window: time.Hour}
	c := stream.NewCorrelationStage(rule)
	for _, p := range []sbserver.Probe{
		probeAt(0, "alice", a),
		probeAt(10*60, "alice", b),
		probeAt(40*60, "alice", a),
		probeAt(60*60, "alice", b),
		probeAt(75*60, "alice", x),
	} {
		c.Observe(p)
	}
	events := c.Events()
	if len(events) != 1 {
		t.Fatalf("events = %+v, want exactly one", events)
	}
	if !events[0].First.Equal(time.Unix(0, 0)) || !events[0].Last.Equal(time.Unix(10*60, 0)) {
		t.Errorf("span = %v..%v, want 0..10m", events[0].First, events[0].Last)
	}
}

func TestNewCorrelationRuleHashesURLs(t *testing.T) {
	t.Parallel()
	rule := core.NewCorrelationRule("r", time.Minute, "petsymposium.org/2016/cfp.php")
	if len(rule.Prefixes) != 1 || rule.Prefixes[0] != 0xe70ee6d1 {
		t.Errorf("rule prefixes = %v", rule.Prefixes)
	}
}
