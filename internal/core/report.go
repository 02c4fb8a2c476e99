package core

import (
	"fmt"
	"strings"
)

// NameCount is a name with an occurrence count, sorted by descending
// count then name in reports.
type NameCount struct {
	// Name is a URL expression or registrable domain.
	Name string
	// Count is how many probes produced this conclusion.
	Count int
}

// ClientReport is the re-identification conclusions about one client
// cookie.
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

// Report is the per-client re-identification output of Section 6.1,
// one entry per client, sorted by cookie: what stream.ReidentStage
// renders (BuildClientReport) over its resident tallies. It is
// deterministic for a given probe multiset: two unbounded stages fed the same
// probes — regardless of delivery order or interleaving — produce
// deeply equal reports, which is what makes a stored log as dangerous
// as a live wiretap.
type Report struct {
	// Clients holds one report per observed cookie, sorted by cookie.
	Clients []ClientReport
}

// String renders the report as the provider's per-client dossier — the
// text cmd/sbanalyze prints for the replayed, followed and live paths.
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
