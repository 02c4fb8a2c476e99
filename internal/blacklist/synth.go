package blacklist

import (
	"fmt"
	"math/rand"
	"sync"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/sbserver"
)

// UniverseConfig controls synthetic database construction.
type UniverseConfig struct {
	// Provider selects the Table 1 or Table 3 inventory.
	Provider Provider
	// Scale divides every paper-reported count (1 = full scale; 100 is a
	// practical default: ~3k prefixes for the large lists).
	Scale int
	// Seed drives deterministic content generation.
	Seed int64
	// ServerOptions configure the embedded sbserver.Server (probe
	// pipeline sizing, overflow policy, clocks).
	ServerOptions []sbserver.Option
}

// Universe is a synthetic provider database whose composition (orphan
// rates, full-hash multiplicities, dataset overlaps) is planted to match
// the paper's measurements, so that the audit algorithms — which run
// unchanged against any server — reproduce the published rows.
//
// Every planted prefix originates from a synthetic cleartext expression;
// orphans are prefixes whose full digest the provider withholds (the
// paper's Section 7.2 shows such entries exist at scale in the real
// services). The Table 9 datasets share a controlled slice of those
// expressions, which is what makes inversion succeed at the Table 10
// rates — including on fully-orphaned lists like ydx-yellow-shavar,
// where matching needs only the prefix, never the digest.
type Universe struct {
	Server *sbserver.Server
	// Inventory is the list metadata used to build the server.
	Inventory []ListInfo
	// pools records, per list, the cleartext expressions behind the
	// planted prefixes (orphan-backed first, then single-digest ones).
	pools map[string][]string
	cfg   UniverseConfig

	// The Table 9 corpora dwarf the lists and only the inversion audits
	// read them, so Datasets builds them on first use. rng is the
	// generator as populateList left it; nothing else draws from it, so
	// the corpora are what an eager build at that point would produce.
	rng          *rand.Rand
	datasetsOnce sync.Once
	datasets     map[string][]string
}

// scaled divides a paper count by the scale, keeping at least 1 for
// non-zero inputs so tiny lists survive scaling.
func scaled(count, scale int) int {
	if count <= 0 {
		return 0
	}
	s := count / scale
	if s == 0 {
		s = 1
	}
	return s
}

// scaledRate keeps count/total proportions under scaling, rounding to
// the nearest integer so small lists preserve their rates as well as
// possible.
func scaledRate(count, paperTotal, scaledTotal int) int {
	if paperTotal <= 0 {
		return 0
	}
	v := (count*scaledTotal + paperTotal/2) / paperTotal
	if count > 0 && v == 0 {
		v = 1
	}
	return v
}

// BuildUniverse constructs the synthetic database.
func BuildUniverse(cfg UniverseConfig) (*Universe, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 100
	}
	inventory := ListsFor(cfg.Provider)
	if inventory == nil {
		return nil, fmt.Errorf("blacklist: unknown provider %d", int(cfg.Provider))
	}
	u := &Universe{
		Server:    sbserver.New(cfg.ServerOptions...),
		Inventory: inventory,
		pools:     make(map[string][]string),
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
	}

	for _, li := range inventory {
		if err := u.Server.CreateList(li.Name, li.Description); err != nil {
			return nil, err
		}
		if li.Prefixes <= 0 {
			continue // unknown (*) or empty lists stay empty
		}
		if err := u.populateList(li, u.rng); err != nil {
			return nil, err
		}
	}
	return u, nil
}

// populateList plants one list with the Table 11 composition: orphans,
// single-digest prefixes and double-digest prefixes, all scaled.
func (u *Universe) populateList(li ListInfo, rng *rand.Rand) error {
	total := scaled(li.Prefixes, u.cfg.Scale)
	orphans := 0
	double := 0
	if li.FullHash0+li.FullHash1+li.FullHash2 > 0 {
		orphans = scaledRate(li.FullHash0, li.Prefixes, total)
		double = scaledRate(li.FullHash2, li.Prefixes, total)
		if orphans > total {
			orphans = total
		}
	}
	single := total - orphans - double
	if single < 0 {
		single = 0
	}

	pool := make([]string, 0, orphans+single)
	for i := 0; i < orphans+single; i++ {
		pool = append(pool, syntheticExpression(li.Name, i, rng))
	}
	u.pools[li.Name] = pool

	// Orphans: the prefix is planted, the digest withheld.
	if orphans > 0 {
		orphanPrefixes := make([]hashx.Prefix, orphans)
		for i := 0; i < orphans; i++ {
			orphanPrefixes[i] = hashx.SumPrefix(pool[i])
		}
		if err := u.Server.AddOrphanPrefixes(li.Name, orphanPrefixes); err != nil {
			return err
		}
	}
	// Single-digest prefixes: ordinary blacklist entries.
	if single > 0 {
		if err := u.Server.AddExpressions(li.Name, pool[orphans:]); err != nil {
			return err
		}
	}
	// Double-digest prefixes: two digests sharing the leading 32 bits.
	for i := 0; i < double; i++ {
		d1 := hashx.Sum(fmt.Sprintf("double%04d.%s.invalid/", i, shortName(li.Name)))
		d2 := d1
		d2[31] ^= 0x5a
		if err := u.Server.AddDigests(li.Name, []hashx.Digest{d1, d2}); err != nil {
			return err
		}
	}
	return nil
}

// syntheticExpression fabricates a blacklisted canonical expression. The
// i-th expression of a list is deterministic in (list, i) modulo the
// shared rng stream, and mixes domain roots, paths and subdomains.
func syntheticExpression(list string, i int, rng *rand.Rand) string {
	switch rng.Intn(3) {
	case 0: // domain root (re-identifiable with certainty, Section 5)
		return fmt.Sprintf("mal%06d-%s.invalid/", i, shortName(list))
	case 1: // path
		return fmt.Sprintf("mal%06d-%s.invalid/p%d/x%d.html", i, shortName(list), rng.Intn(10), rng.Intn(100))
	default: // subdomain root
		return fmt.Sprintf("s%d.mal%06d-%s.invalid/", rng.Intn(10), i, shortName(list))
	}
}

func shortName(list string) string {
	if len(list) > 12 {
		return list[:12]
	}
	return list
}

// Datasets returns the scaled Table 9 corpora (canonical expressions),
// keyed by dataset name. The first call builds all four, in
// InversionDatasets order; the result is deterministic in the seed and
// safe for concurrent use.
func (u *Universe) Datasets() map[string][]string {
	u.datasetsOnce.Do(func() { u.datasets = u.buildDatasets(u.rng) })
	return u.datasets
}

// buildDatasets constructs the scaled Table 9 corpora. For each
// (list, dataset) cell of Table 10 the dataset absorbs rate * listSize of
// the list's expression pool — drawn from the front, so orphan-backed
// prefixes participate too, as they do in the real inversion.
func (u *Universe) buildDatasets(rng *rand.Rand) map[string][]string {
	datasets := make(map[string][]string, len(InversionDatasets))
	for _, ds := range InversionDatasets {
		size := scaled(ds.Entries, u.cfg.Scale*10) // datasets dwarf the lists; scale harder
		entries := make([]string, 0, size)
		seen := make(map[string]struct{}, size)

		for _, li := range u.Inventory {
			rate, ok := Table10Rates[li.Name][ds.Name]
			if !ok || rate == 0 {
				continue
			}
			pool := u.pools[li.Name]
			overlap := int(rate*float64(scaled(li.Prefixes, u.cfg.Scale)) + 0.5)
			if overlap > len(pool) {
				overlap = len(pool)
			}
			for _, expr := range pool[:overlap] {
				if _, dup := seen[expr]; dup {
					continue
				}
				seen[expr] = struct{}{}
				entries = append(entries, expr)
			}
		}

		// Fill the remainder with entries absent from every list.
		for i := 0; len(entries) < size; i++ {
			entries = append(entries, fmt.Sprintf("clean-%s-%06d.invalid/%d", shortDS(ds.Name), i, rng.Intn(1000)))
		}
		datasets[ds.Name] = entries
	}
	return datasets
}

func shortDS(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+'a'-'A')
		}
	}
	return string(out)
}

// PlantTable12 blacklists the decompositions of the paper's Table 12
// multi-prefix URLs in the given list, so the multi-prefix audit finds
// them.
func (u *Universe) PlantTable12(listName string) error {
	for _, t := range Table12URLs {
		if t.Provider != u.cfg.Provider {
			continue
		}
		if err := u.Server.AddExpressions(listName, t.Matches); err != nil {
			return err
		}
	}
	return nil
}

// Table12Candidates returns the paper's Table 12 URLs for this provider,
// the candidate set a multi-prefix scan should test.
func (u *Universe) Table12Candidates() []string {
	var out []string
	for _, t := range Table12URLs {
		if t.Provider == u.cfg.Provider {
			out = append(out, t.URL)
		}
	}
	return out
}
