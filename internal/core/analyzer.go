package core

import (
	"fmt"
	"strings"
	"sync"

	"sbprivacy/internal/sbserver"
)

// Analyzer aggregates the paper's multi-prefix re-identification
// analysis (Section 6.1) over a stream of probes: each full-hash
// request's prefix set is resolved against the provider's web index,
// and the conclusions are tallied per client cookie. It implements
// sbserver.ProbeSink, so it can run live (subscribed to a server) or
// offline (fed from a persisted probe log via probestore.Replay); both
// paths produce the identical Report for the same probes, which is what
// makes a stored log as dangerous as a live wiretap. Safe for
// concurrent use.
type Analyzer struct {
	mu      sync.Mutex
	x       *Index
	clients map[string]*ClientTally
}

var _ sbserver.ProbeSink = (*Analyzer)(nil)

// NewAnalyzer builds an analyzer over the provider's web index.
func NewAnalyzer(x *Index) *Analyzer {
	return &Analyzer{x: x, clients: make(map[string]*ClientTally)}
}

// Observe implements sbserver.ProbeSink: it re-identifies one probe's
// prefix set and files the outcome under the probe's cookie. A probe
// with a single exact candidate is an exact URL re-identification; a
// probe whose candidates share a registrable domain re-identifies the
// site; anything else is ambiguous (candidates disagree) or unknown
// (no indexed URL explains the prefixes). The classification and tally
// live in ClientTally — the scoring core shared with the streaming
// reident stage of internal/stream.
func (a *Analyzer) Observe(p sbserver.Probe) {
	s := a.x.Score(p.Prefixes)
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.clients[p.ClientID]
	if c == nil {
		c = NewClientTally()
		a.clients[p.ClientID] = c
	}
	c.Observe(s, len(p.Prefixes))
}

// NameCount is a name with an occurrence count, sorted by descending
// count then name in reports.
type NameCount struct {
	// Name is a URL expression or registrable domain.
	Name string
	// Count is how many probes produced this conclusion.
	Count int
}

// ClientReport is the analyzer's conclusions about one client cookie.
type ClientReport struct {
	// ClientID is the Safe Browsing cookie.
	ClientID string
	// Probes is the number of full-hash requests observed.
	Probes int
	// Prefixes is the total number of prefixes across those probes.
	Prefixes int
	// ExactURLs are the URLs re-identified exactly (a unique candidate).
	ExactURLs []NameCount
	// Domains are the registrable domains re-identified when the exact
	// URL stayed ambiguous.
	Domains []NameCount
	// Ambiguous counts probes whose candidates span several domains.
	Ambiguous int
	// Unknown counts probes no indexed URL explains.
	Unknown int
}

// Report is the analyzer's full output, one entry per client, sorted by
// cookie. It is deterministic for a given probe multiset: two analyzer
// runs over the same probes — regardless of delivery order or
// interleaving — produce deeply equal reports.
type Report struct {
	// Clients holds one report per observed cookie, sorted by cookie.
	Clients []ClientReport
}

// Report snapshots the analyzer's conclusions so far. Live callers must
// flush the server first so in-flight probes are included.
func (a *Analyzer) Report() *Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	return BuildClientReport(a.x, a.clients)
}

// String renders the report as the provider's per-client dossier — the
// text cmd/sbanalyze prints for both the live and the replayed path.
func (r *Report) String() string {
	var b strings.Builder
	for _, c := range r.Clients {
		fmt.Fprintf(&b, "client %s: %d probes, %d prefixes\n", c.ClientID, c.Probes, c.Prefixes)
		for _, e := range c.ExactURLs {
			fmt.Fprintf(&b, "  exact   %s (x%d)\n", e.Name, e.Count)
		}
		for _, d := range c.Domains {
			fmt.Fprintf(&b, "  domain  %s (x%d)\n", d.Name, d.Count)
		}
		if c.Ambiguous > 0 {
			fmt.Fprintf(&b, "  ambiguous: %d\n", c.Ambiguous)
		}
		if c.Unknown > 0 {
			fmt.Fprintf(&b, "  unknown: %d\n", c.Unknown)
		}
	}
	return b.String()
}
