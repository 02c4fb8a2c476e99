package core

import (
	"testing"
	"time"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/sbserver"
)

func probeAt(sec int64, client string, prefixes ...hashx.Prefix) sbserver.Probe {
	return sbserver.Probe{
		Time:     time.Unix(sec, 0),
		ClientID: client,
		Prefixes: prefixes,
	}
}

func TestAggregateProbesWindows(t *testing.T) {
	t.Parallel()
	probes := []sbserver.Probe{
		probeAt(0, "u1", 1),
		probeAt(30, "u1", 2),
		probeAt(45, "u1", 2, 3), // duplicate prefix 2 collapses
		probeAt(500, "u1", 4),   // gap > window: new window
		probeAt(10, "u2", 9),
	}
	windows := AggregateProbes(probes, time.Minute)
	if len(windows) != 3 {
		t.Fatalf("windows = %+v", windows)
	}
	// Sorted by client: u1 first.
	w0 := windows[0]
	if w0.ClientID != "u1" || len(w0.Prefixes) != 3 {
		t.Errorf("w0 = %+v", w0)
	}
	if !w0.Start.Equal(time.Unix(0, 0)) || !w0.End.Equal(time.Unix(45, 0)) {
		t.Errorf("w0 span = %v..%v", w0.Start, w0.End)
	}
	w1 := windows[1]
	if w1.ClientID != "u1" || len(w1.Prefixes) != 1 || w1.Prefixes[0] != 4 {
		t.Errorf("w1 = %+v", w1)
	}
	if windows[2].ClientID != "u2" {
		t.Errorf("w2 = %+v", windows[2])
	}
}

func TestAggregateProbesEmpty(t *testing.T) {
	t.Parallel()
	if got := AggregateProbes(nil, time.Minute); len(got) != 0 {
		t.Errorf("AggregateProbes(nil) = %+v", got)
	}
}

// TestReidentifyAggregatedDefeatsCaching reproduces the aggregation
// threat: the full-hash cache splits a URL's two prefixes across two
// lookups (the tracker's per-request view misses the pair), but
// aggregating the probe log reassembles them and re-identifies the URL.
func TestReidentifyAggregatedDefeatsCaching(t *testing.T) {
	t.Parallel()
	x := petsIndex()
	cfp := hashx.SumPrefix("petsymposium.org/2016/cfp.php")
	root := hashx.SumPrefix("petsymposium.org/")

	// The client revealed the two prefixes in separate requests, 2
	// minutes apart (e.g. the root was cached from an earlier lookup).
	probes := []sbserver.Probe{
		probeAt(100, "victim", root),
		probeAt(220, "victim", cfp),
	}
	results := x.ReidentifyAggregated(probes, 10*time.Minute)
	vr := results["victim"]
	if len(vr) != 1 {
		t.Fatalf("victim results = %+v", results)
	}
	if !vr[0].Exact || vr[0].Candidates[0] != "petsymposium.org/2016/cfp.php" {
		t.Errorf("aggregated re-identification = %+v", vr[0])
	}

	// Outside the window, the pair never forms.
	results = x.ReidentifyAggregated(probes, time.Minute)
	if len(results["victim"]) != 0 {
		t.Errorf("out-of-window results = %+v", results)
	}
}

// TestReidentifyAggregatedPairFallback: when a window mixes prefixes of
// unrelated URLs, the union has no candidate, but the pairwise fallback
// still finds the related pair.
func TestReidentifyAggregatedPairFallback(t *testing.T) {
	t.Parallel()
	x := NewIndex([]string{
		"petsymposium.org/",
		"petsymposium.org/2016/cfp.php",
		"other.example/",
	})
	probes := []sbserver.Probe{
		probeAt(10, "u",
			hashx.SumPrefix("other.example/"), // unrelated noise
			hashx.SumPrefix("petsymposium.org/"),
		),
		probeAt(20, "u", hashx.SumPrefix("petsymposium.org/2016/cfp.php")),
	}
	results := x.ReidentifyAggregated(probes, time.Minute)
	ur := results["u"]
	if len(ur) != 1 {
		t.Fatalf("results = %+v", results)
	}
	if len(ur[0].Candidates) == 0 {
		t.Fatal("pair fallback found nothing")
	}
	// The related PETS pair is recovered despite the noise.
	found := false
	for _, c := range ur[0].Candidates {
		if c == "petsymposium.org/2016/cfp.php" {
			found = true
		}
	}
	if !found {
		t.Errorf("candidates = %v", ur[0].Candidates)
	}
}

// TestAggregationSeesThroughOnePrefixMitigation: the paper's proposed
// mitigation sends prefixes in separate requests; aggregation undoes the
// split unless the client also refuses to send the second batch.
func TestAggregationSeesThroughOnePrefixMitigation(t *testing.T) {
	t.Parallel()
	x := petsIndex()
	// One prefix per request, seconds apart — exactly what the staged
	// strategy produces when it proceeds to stage 2.
	probes := []sbserver.Probe{
		probeAt(0, "careful", hashx.SumPrefix("petsymposium.org/")),
		probeAt(5, "careful", hashx.SumPrefix("petsymposium.org/2016/")),
		probeAt(9, "careful", hashx.SumPrefix("petsymposium.org/2016/links.php")),
	}
	results := x.ReidentifyAggregated(probes, time.Minute)
	cr := results["careful"]
	if len(cr) != 1 {
		t.Fatalf("results = %+v", results)
	}
	if !cr[0].Exact || cr[0].Candidates[0] != "petsymposium.org/2016/links.php" {
		t.Errorf("aggregated = %+v", cr[0])
	}
}
