package exp

import (
	"context"

	"sbprivacy/internal/lookupapi"
	"sbprivacy/internal/sbclient"
	"sbprivacy/internal/sbserver"
)

func init() {
	registry["lookupapi"] = runLookupAPI
}

// runLookupAPI contrasts the deprecated plaintext Lookup API with the v3
// prefix protocol on an identical browsing session: the quantitative
// form of the paper's Section 2.2 motivation for the redesign.
func runLookupAPI(ctx context.Context, cfg Config) (*Result, error) {
	srv := sbserver.New()
	const list = "goog-malware-shavar"
	if err := srv.CreateList(list, "malware"); err != nil {
		return nil, err
	}
	if err := srv.AddExpressions(list, []string{"evil.example/"}); err != nil {
		return nil, err
	}

	browsing := []string{
		"http://bank.example/account/statement",
		"http://clinic.example/appointments",
		"http://news.example/politics/opinion",
		"http://evil.example/",
	}

	// Deprecated API: every URL goes to the provider in clear.
	lookup := lookupapi.NewServer(srv, []string{list})
	if _, err := lookup.Lookup("user", browsing); err != nil {
		return nil, err
	}

	// v3: only the single blacklisted hit reveals one prefix.
	v3 := sbclient.New(sbclient.LocalTransport{Server: srv}, []string{list},
		sbclient.WithCookie("user"))
	if err := v3.Update(ctx, true); err != nil {
		return nil, err
	}
	for _, u := range browsing {
		if _, err := v3.CheckURL(ctx, u); err != nil {
			return nil, err
		}
	}

	prefixesLeaked := 0
	for _, p := range srv.Probes() {
		prefixesLeaked += len(p.Prefixes)
	}
	t := newTable()
	t.row("metric", "Lookup API (deprecated)", "Safe Browsing v3")
	t.row("URLs checked", len(browsing), len(browsing))
	t.row("full URLs revealed", len(lookup.URLLog()), 0)
	t.row("prefixes revealed", "n/a (full URLs)", prefixesLeaked)
	t.row("provider learns browsing history", "entirely", "only blacklist hits, 32-bit anonymized")
	return &Result{
		ID:    "lookupapi",
		Title: "Section 2.2: plaintext Lookup API vs v3 prefix protocol exposure",
		Text:  t.String(),
	}, nil
}
