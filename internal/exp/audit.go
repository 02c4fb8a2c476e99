package exp

import (
	"context"

	"fmt"

	"sbprivacy/internal/blacklist"
	"sbprivacy/internal/core"
	"sbprivacy/internal/hashx"
	"sbprivacy/internal/mitigation"
	"sbprivacy/internal/sbserver"
)

func init() {
	registry["table9"] = runTable9
	registry["table10"] = runTable10
	registry["table11"] = runTable11
	registry["table12"] = runTable12
	registry["mitigation"] = runMitigation
}

func runTable9(ctx context.Context, cfg Config) (*Result, error) {
	u, err := blacklist.BuildUniverse(blacklist.UniverseConfig{
		Provider: blacklist.Yandex, Scale: cfg.Scale, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	t := newTable()
	t.row("dataset", "description", "#entries (paper)", fmt.Sprintf("#entries (synthetic, /%d)", cfg.Scale*10))
	for _, ds := range blacklist.InversionDatasets {
		t.row(ds.Name, ds.Description, ds.Entries, len(u.Datasets()[ds.Name]))
	}
	return &Result{
		ID:    "table9",
		Title: "Table 9: datasets used for inverting 32-bit prefixes",
		Text:  t.String(),
	}, nil
}

func runTable10(ctx context.Context, cfg Config) (*Result, error) {
	t := newTable()
	t.row("list", "dataset", "matches", "rate", "paper rate")
	for _, provider := range []blacklist.Provider{blacklist.Google, blacklist.Yandex} {
		u, err := blacklist.BuildUniverse(blacklist.UniverseConfig{
			Provider: provider, Scale: cfg.Scale, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		for _, li := range u.Inventory {
			rates, tracked := blacklist.Table10Rates[li.Name]
			if !tracked || li.Provider != provider {
				continue
			}
			for _, ds := range blacklist.InversionDatasets {
				paperRate, ok := rates[ds.Name]
				if !ok {
					continue
				}
				res, err := blacklist.Invert(u.Server, li.Name, ds.Name, u.Datasets()[ds.Name])
				if err != nil {
					return nil, err
				}
				t.row(fmt.Sprintf("%s/%s", provider, li.Name), ds.Name,
					res.Matches, fmt.Sprintf("%.3f", res.Rate), fmt.Sprintf("%.3f", paperRate))
			}
		}
	}
	return &Result{
		ID:    "table10",
		Title: "Table 10: database inversion matches per list and dataset",
		Text:  t.String(),
	}, nil
}

func runTable11(ctx context.Context, cfg Config) (*Result, error) {
	t := newTable()
	t.row("list", "0 hash", "1 hash", "2 hashes", "total", "orphan rate", "paper orphans")
	for _, provider := range []blacklist.Provider{blacklist.Google, blacklist.Yandex} {
		u, err := blacklist.BuildUniverse(blacklist.UniverseConfig{
			Provider: provider, Scale: cfg.Scale, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		for _, li := range u.Inventory {
			if li.FullHash0+li.FullHash1+li.FullHash2 == 0 {
				continue // lists absent from Table 11
			}
			rep, err := blacklist.AuditOrphans(u.Server, li.Name)
			if err != nil {
				return nil, err
			}
			t.row(fmt.Sprintf("%s/%s", provider, li.Name),
				rep.Zero, rep.One, rep.Two, rep.Total,
				fmt.Sprintf("%.4f", rep.OrphanRate()),
				fmt.Sprintf("%d/%d", li.FullHash0, li.Prefixes))
		}
	}
	return &Result{
		ID:    "table11",
		Title: "Table 11: full hashes per prefix (orphans)",
		Text:  t.String(),
	}, nil
}

func runTable12(ctx context.Context, cfg Config) (*Result, error) {
	u, err := blacklist.BuildUniverse(blacklist.UniverseConfig{
		Provider: blacklist.Yandex, Scale: cfg.Scale, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	if err := u.PlantTable12("ydx-malware-shavar"); err != nil {
		return nil, err
	}
	hits, err := blacklist.FindMultiPrefixURLs(u.Server,
		[]string{"ydx-malware-shavar"}, u.Table12Candidates(), 2)
	if err != nil {
		return nil, err
	}
	t := newTable()
	t.row("URL", "matching decomposition", "prefix")
	for _, h := range hits {
		for i := range h.Expressions {
			url := ""
			if i == 0 {
				url = h.URL
			}
			t.row(url, h.Expressions[i], h.Prefixes[i])
		}
	}
	return &Result{
		ID:    "table12",
		Title: "Table 12: URLs with multiple matching prefixes (paper's examples, recovered by scan)",
		Text:  t.String(),
	}, nil
}

func runMitigation(ctx context.Context, cfg Config) (*Result, error) {
	// An index over a small synthetic world quantifies k-anonymity.
	index := core.NewIndex([]string{
		"fr.xhamster.com/user/video", "fr.xhamster.com/", "xhamster.com/",
		"petsymposium.org/", "petsymposium.org/2016/cfp.php",
		"clean.example/", "other.example/page",
	})
	real := hashx.SumPrefix("petsymposium.org/2016/cfp.php")
	before, after := mitigation.SingleKAnonymityGain(real, 4, index.KAnonymity)

	// One-prefix-at-a-time leak comparison against the vanilla client.
	srv := sbserver.New()
	if err := srv.CreateList("goog-malware-shavar", "malware"); err != nil {
		return nil, err
	}
	if err := srv.AddExpressions("goog-malware-shavar",
		[]string{"fr.xhamster.com/", "xhamster.com/"}); err != nil {
		return nil, err
	}

	t := newTable()
	t.row("mitigation", "metric", "value")
	t.row("dummy queries (k=4)", "single-prefix k-anonymity", fmt.Sprintf("%d -> %d", before, after))

	// Multi-prefix defeat: both real prefixes remain jointly visible.
	realPair := []hashx.Prefix{
		hashx.SumPrefix("fr.xhamster.com/"),
		hashx.SumPrefix("xhamster.com/"),
	}
	padded := mitigation.AugmentRequest(realPair, 4)
	var indexed []hashx.Prefix
	for _, p := range padded {
		if index.KAnonymity(p) > 0 {
			indexed = append(indexed, p)
		}
	}
	re := index.Reidentify(indexed)
	t.row("dummy queries (k=4)", "multi-prefix re-identified domain", re.CommonDomain)
	t.row("", "(padding does not hide correlated prefixes)", "")
	return &Result{
		ID:    "mitigation",
		Title: "Section 8: mitigations — dummies help single prefixes, not multi-prefix",
		Text:  t.String(),
	}, nil
}
