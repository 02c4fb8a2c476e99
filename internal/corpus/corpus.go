// Package corpus generates and measures synthetic web corpora standing in
// for the Common Crawl datasets of the paper's Section 6.2.
//
// The paper measured two 1M-host datasets (Alexa-popular and random) and
// found the number of URLs per host follows a power law with fitted
// exponent alpha = 1.312 (x_min = 1), a per-host crawl cap of ~2.7x10^5
// pages, and 61% single-page hosts in the random dataset. This package
// generates hosts from exactly those published parameters — URL counts
// from a discrete power law, per-host path trees and subdomains that
// produce overlapping decompositions — and then *re-measures* every
// statistic, so the distributions of Figures 5 and 6 are emergent, not
// hard-coded.
//
// Generation is deterministic for a given Config (seeded PRNG per host),
// so experiments and tests are reproducible.
package corpus

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"sbprivacy/internal/urlx"
)

// Profile selects the dataset flavour of the paper's Table 8.
type Profile int

// Profiles.
const (
	// ProfileAlexa models the 1M most popular hosts: heavier URL counts.
	ProfileAlexa Profile = iota + 1
	// ProfileRandom models 1M random hosts: 61% single-page.
	ProfileRandom
)

// String returns the profile name.
func (p Profile) String() string {
	switch p {
	case ProfileAlexa:
		return "Alexa"
	case ProfileRandom:
		return "Random"
	default:
		return fmt.Sprintf("Profile(%d)", int(p))
	}
}

// Config parametrizes corpus generation.
type Config struct {
	// Profile selects Alexa-like or Random-like host populations.
	Profile Profile
	// Hosts is the number of registrable domains to generate.
	Hosts int
	// Seed makes generation deterministic.
	Seed int64
	// Alpha is the power-law exponent for URLs per host. The paper fits
	// alpha = 1.312 on the random dataset. Zero means 1.312.
	Alpha float64
	// MaxURLsPerHost is the per-host crawl cap. The paper observes
	// ~2.7x10^5; scaled-down corpora use less. Zero means 1000.
	MaxURLsPerHost int
	// SinglePageFraction forces this fraction of hosts to one URL, as the
	// paper measured 61% in the random dataset. Negative disables the
	// mixture (pure power law); zero uses the profile default.
	SinglePageFraction float64
}

// Defaults.
const (
	DefaultAlpha          = 1.312
	DefaultMaxURLsPerHost = 1000
	// PaperRandomSinglePage is the single-page host share of the paper's
	// random dataset.
	PaperRandomSinglePage = 0.61
)

// ErrBadConfig reports an invalid generation config.
var ErrBadConfig = errors.New("corpus: invalid config")

// Host is one generated registrable domain and its URLs.
type Host struct {
	// Domain is the registrable domain, e.g. "site000042.example".
	Domain string
	// URLs are canonical decomposition-format strings
	// ("sub.site000042.example/a/b.html?q=1").
	URLs []string
}

// Corpus is a generated dataset.
type Corpus struct {
	Profile Profile
	Hosts   []Host
}

func (c Config) withDefaults() (Config, error) {
	if c.Profile != ProfileAlexa && c.Profile != ProfileRandom {
		return c, fmt.Errorf("%w: unknown profile %d", ErrBadConfig, int(c.Profile))
	}
	if c.Hosts <= 0 {
		return c, fmt.Errorf("%w: hosts = %d", ErrBadConfig, c.Hosts)
	}
	if c.Alpha == 0 {
		c.Alpha = DefaultAlpha
	}
	if c.Alpha <= 1 {
		return c, fmt.Errorf("%w: alpha = %v (must exceed 1)", ErrBadConfig, c.Alpha)
	}
	if c.MaxURLsPerHost == 0 {
		c.MaxURLsPerHost = DefaultMaxURLsPerHost
	}
	if c.MaxURLsPerHost < 1 {
		return c, fmt.Errorf("%w: max URLs per host = %d", ErrBadConfig, c.MaxURLsPerHost)
	}
	if c.SinglePageFraction == 0 {
		if c.Profile == ProfileRandom {
			c.SinglePageFraction = PaperRandomSinglePage
		} else {
			c.SinglePageFraction = -1
		}
	}
	if c.SinglePageFraction > 1 {
		return c, fmt.Errorf("%w: single-page fraction = %v", ErrBadConfig, c.SinglePageFraction)
	}
	return c, nil
}

// Generate builds a corpus.
func Generate(cfg Config) (*Corpus, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	corpus := &Corpus{Profile: cfg.Profile, Hosts: make([]Host, cfg.Hosts)}
	for i := range corpus.Hosts {
		rng := rand.New(rand.NewSource(cfg.Seed ^ (int64(i)+1)*0x5851f42d4c957f2d))
		corpus.Hosts[i] = generateHost(cfg, i, rng)
	}
	return corpus, nil
}

// generateHost builds one domain: URL count from the power law, then a
// path tree with optional subdomains.
func generateHost(cfg Config, index int, rng *rand.Rand) Host {
	domain := fmt.Sprintf("site%06d.example", index)
	n := sampleURLCount(cfg, rng)
	return Host{Domain: domain, URLs: buildSite(domain, n, rng)}
}

// sampleURLCount draws the number of URLs for a host.
func sampleURLCount(cfg Config, rng *rand.Rand) int {
	if cfg.SinglePageFraction > 0 && rng.Float64() < cfg.SinglePageFraction {
		return 1
	}
	n := samplePowerLaw(cfg.Alpha, rng)
	// Alexa hosts are popular: shift the floor up so even modest sites
	// publish a handful of pages, mirroring the heavier Alexa curve of
	// Figure 5a.
	if cfg.Profile == ProfileAlexa {
		n += rng.Intn(8)
	}
	if n > cfg.MaxURLsPerHost {
		n = cfg.MaxURLsPerHost // the crawler cap of Figure 5a's plateau
	}
	return n
}

// samplePowerLaw draws from the discrete power law p(x) proportional to
// x^-alpha, x >= 1, via the continuous Pareto inverse CDF floored.
func samplePowerLaw(alpha float64, rng *rand.Rand) int {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	x := math.Pow(u, -1/(alpha-1)) // Pareto(x_min=1)
	if x > 1e9 {
		x = 1e9
	}
	return int(x)
}

// subdomain vocabulary mirrors the mirrors/localized-front-end pattern of
// the paper's Table 12 examples (fr.xhamster.com, m.wickedpictures.com...).
var _subdomains = []string{"www", "m", "fr", "nl", "en", "blog", "shop", "news", "mobile", "forum"}

// path vocabulary.
var (
	_dirNames  = []string{"tag", "user", "2016", "wp", "menu", "item", "cat", "doc", "img", "api", "archive", "post"}
	_fileStems = []string{"index", "page", "view", "login", "join", "video", "cfp", "faq", "links", "item", "story", "list"}
	_fileExts  = []string{".html", ".php", "", ".asp", ".pwf"}
)

// buildSite generates n URLs on one domain as a random directory tree.
// Directories published as URLs themselves create non-leaf URLs — the
// source of Type I collisions (Section 6.1). Sites are bimodal, like the
// real web: "flat" sites never publish directory URLs (every URL is a
// leaf, no Type I collisions), while "deep" sites do. The paper measured
// a majority of domains without Type I collisions (60% Alexa / 56%
// Random); the flat-site share below reproduces that majority once
// single-page hosts are added.
func buildSite(domain string, n int, rng *rand.Rand) []string {
	flat := rng.Float64() < 0.5

	// Hosts: base domain plus a few subdomains for larger sites.
	hosts := []string{domain}
	if n >= 5 {
		for _, sub := range rng.Perm(len(_subdomains))[:rng.Intn(3)+1] {
			hosts = append(hosts, _subdomains[sub]+"."+domain)
		}
	}

	type dir struct {
		host string
		path string // always ends in "/"
		deep int
	}
	dirs := make([]dir, 0, 8+n/16)
	for _, h := range hosts {
		dirs = append(dirs, dir{host: h, path: "/", deep: 0})
	}

	urls := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	add := func(u string) bool {
		if _, dup := seen[u]; dup {
			return false
		}
		seen[u] = struct{}{}
		urls = append(urls, u)
		return true
	}

	for len(urls) < n {
		parent := dirs[rng.Intn(len(dirs))]
		switch r := rng.Float64(); {
		case r < 0.18 && parent.deep < 4:
			// New subdirectory; on deep sites, publish it as a URL too
			// with prob 1/2 (a non-leaf URL).
			name := _dirNames[rng.Intn(len(_dirNames))] + strconv.Itoa(rng.Intn(50))
			child := dir{host: parent.host, path: parent.path + name + "/", deep: parent.deep + 1}
			dirs = append(dirs, child)
			if !flat && rng.Float64() < 0.5 {
				add(child.host + child.path)
			}
		case r < 0.28 && !flat:
			// Publish the directory itself.
			add(parent.host + parent.path)
		default:
			// A file in the directory, occasionally with a query.
			stem := _fileStems[rng.Intn(len(_fileStems))] + strconv.Itoa(rng.Intn(100))
			u := parent.host + parent.path + stem + _fileExts[rng.Intn(len(_fileExts))]
			if rng.Float64() < 0.1 {
				u += "?id=" + strconv.Itoa(rng.Intn(1000))
			}
			add(u)
		}
	}
	return urls
}

// Decompositions returns the decomposition expressions of a corpus URL.
func Decompositions(urlExpr string) []string {
	return urlx.FromExpression(urlExpr).Decompositions()
}

// TotalURLs counts URLs across all hosts.
func (c *Corpus) TotalURLs() int {
	total := 0
	for i := range c.Hosts {
		total += len(c.Hosts[i].URLs)
	}
	return total
}

// AllURLs flattens the corpus into one slice (the provider's web index).
func (c *Corpus) AllURLs() []string {
	out := make([]string, 0, c.TotalURLs())
	for i := range c.Hosts {
		out = append(out, c.Hosts[i].URLs...)
	}
	return out
}
