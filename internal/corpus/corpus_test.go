package corpus

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"sbprivacy/internal/urlx"
)

func smallCorpus(t *testing.T, profile Profile, hosts int) *Corpus {
	t.Helper()
	c, err := Generate(Config{Profile: profile, Hosts: hosts, Seed: 42, MaxURLsPerHost: 300})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return c
}

func TestGenerateValidation(t *testing.T) {
	t.Parallel()
	bad := []Config{
		{},
		{Profile: ProfileRandom, Hosts: 0},
		{Profile: ProfileRandom, Hosts: 10, Alpha: 0.9},
		{Profile: ProfileRandom, Hosts: 10, MaxURLsPerHost: -1},
		{Profile: ProfileRandom, Hosts: 10, SinglePageFraction: 1.5},
		{Profile: Profile(9), Hosts: 10},
	}
	for _, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("Generate(%+v): want error", cfg)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	t.Parallel()
	a := smallCorpus(t, ProfileRandom, 50)
	b := smallCorpus(t, ProfileRandom, 50)
	if len(a.Hosts) != len(b.Hosts) {
		t.Fatal("host counts differ across identical configs")
	}
	for i := range a.Hosts {
		if a.Hosts[i].Domain != b.Hosts[i].Domain || len(a.Hosts[i].URLs) != len(b.Hosts[i].URLs) {
			t.Fatalf("host %d differs across identical configs", i)
		}
		for j := range a.Hosts[i].URLs {
			if a.Hosts[i].URLs[j] != b.Hosts[i].URLs[j] {
				t.Fatalf("URL %d/%d differs", i, j)
			}
		}
	}
	// Different seed changes content.
	c, err := Generate(Config{Profile: ProfileRandom, Hosts: 50, Seed: 43, MaxURLsPerHost: 300})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	same := true
	for i := range a.Hosts {
		if len(a.Hosts[i].URLs) != len(c.Hosts[i].URLs) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seed produced identical URL counts everywhere")
	}
}

// TestURLsAreCanonical: every generated URL is already in canonical
// decomposition form — re-canonicalizing is a no-op.
func TestURLsAreCanonical(t *testing.T) {
	t.Parallel()
	c := smallCorpus(t, ProfileAlexa, 30)
	checked := 0
	for _, h := range c.Hosts {
		for _, u := range h.URLs {
			canon, err := urlx.Canonicalize("http://" + u)
			if err != nil {
				t.Fatalf("Canonicalize(%q): %v", u, err)
			}
			if canon.String() != u {
				t.Errorf("URL not canonical: %q -> %q", u, canon.String())
			}
			if !strings.HasSuffix(urlx.HostOf(u), h.Domain) {
				t.Errorf("URL %q not under domain %q", u, h.Domain)
			}
			checked++
		}
		if len(h.URLs) == 0 {
			t.Errorf("host %s has no URLs", h.Domain)
		}
	}
	if checked == 0 {
		t.Fatal("no URLs generated")
	}
}

func TestURLsUniquePerHost(t *testing.T) {
	t.Parallel()
	c := smallCorpus(t, ProfileRandom, 60)
	for _, h := range c.Hosts {
		seen := make(map[string]struct{}, len(h.URLs))
		for _, u := range h.URLs {
			if _, dup := seen[u]; dup {
				t.Fatalf("duplicate URL %q on %s", u, h.Domain)
			}
			seen[u] = struct{}{}
		}
	}
}

func TestMaxURLsPerHostCap(t *testing.T) {
	t.Parallel()
	c, err := Generate(Config{Profile: ProfileAlexa, Hosts: 200, Seed: 7, MaxURLsPerHost: 50})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for _, h := range c.Hosts {
		if len(h.URLs) > 50 {
			t.Fatalf("host %s has %d URLs, cap 50", h.Domain, len(h.URLs))
		}
	}
}

// TestRandomProfileSinglePageShare reproduces the paper's measurement:
// ~61% of random-dataset hosts are single-page.
func TestRandomProfileSinglePageShare(t *testing.T) {
	t.Parallel()
	c := smallCorpus(t, ProfileRandom, 2000)
	single := 0
	for _, h := range c.Hosts {
		if len(h.URLs) == 1 {
			single++
		}
	}
	share := float64(single) / float64(len(c.Hosts))
	if share < 0.55 || share > 0.75 {
		t.Errorf("single-page share = %.2f, want ~0.61", share)
	}
}

// TestAlexaHeavierThanRandom: Alexa hosts carry more URLs, as in
// Figure 5a.
func TestAlexaHeavierThanRandom(t *testing.T) {
	t.Parallel()
	alexa := smallCorpus(t, ProfileAlexa, 1000)
	random := smallCorpus(t, ProfileRandom, 1000)
	if alexa.TotalURLs() <= random.TotalURLs() {
		t.Errorf("Alexa total %d <= Random total %d", alexa.TotalURLs(), random.TotalURLs())
	}
}

// TestPowerLawFitRecoversAlpha: the MLE estimator recovers the paper's
// exponent 1.312 from samples of the generator's power law. Counts are
// sampled directly (building 20k full sites with a 10^5 cap would be
// needlessly slow; the estimator only sees counts).
func TestPowerLawFitRecoversAlpha(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	counts := make([]int, 50000)
	for i := range counts {
		counts[i] = samplePowerLaw(DefaultAlpha, rng)
	}
	alpha, stdErr := FitPowerLaw(counts)
	if math.Abs(alpha-DefaultAlpha) > 0.02 {
		t.Errorf("fitted alpha = %.3f, want ~%.3f", alpha, DefaultAlpha)
	}
	if stdErr <= 0 || stdErr > 0.01 {
		t.Errorf("stdErr = %.5f", stdErr)
	}
}

func TestFitPowerLawEdgeCases(t *testing.T) {
	t.Parallel()
	if a, s := FitPowerLaw(nil); a != 0 || s != 0 {
		t.Errorf("FitPowerLaw(nil) = %v, %v", a, s)
	}
	// All ones: sum of logs is zero -> undefined, reported as 0.
	if a, _ := FitPowerLaw([]int{1, 1, 1}); a != 0 {
		t.Errorf("FitPowerLaw(ones) = %v, want 0", a)
	}
	if a, _ := FitPowerLaw([]int{0, -2}); a != 0 {
		t.Errorf("FitPowerLaw(non-positive) = %v, want 0", a)
	}
}

func TestDecompositionsHelper(t *testing.T) {
	t.Parallel()
	d := Decompositions("sub.site000001.example/a/b.html?q=1")
	want := []string{
		"sub.site000001.example/a/b.html?q=1",
		"sub.site000001.example/a/b.html",
		"sub.site000001.example/",
		"sub.site000001.example/a/",
		"site000001.example/a/b.html?q=1",
		"site000001.example/a/b.html",
		"site000001.example/",
		"site000001.example/a/",
	}
	if len(d) != len(want) {
		t.Fatalf("Decompositions = %q", d)
	}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("decomp %d = %q, want %q", i, d[i], want[i])
		}
	}
}

// TestSubdomainsStayUnderDomain: larger sites sprout subdomains (the
// fr./m./www. mirrors of Table 12), and every subdomain URL remains
// under its registrable domain.
func TestSubdomainsStayUnderDomain(t *testing.T) {
	t.Parallel()
	c := smallCorpus(t, ProfileAlexa, 300)
	hostsWithSubs := 0
	for _, h := range c.Hosts {
		subSeen := false
		for _, u := range h.URLs {
			host := urlx.HostOf(u)
			if urlx.RegisteredDomain(host) != h.Domain {
				t.Fatalf("URL %q escapes domain %q", u, h.Domain)
			}
			if host != h.Domain {
				subSeen = true
			}
		}
		if subSeen {
			hostsWithSubs++
		}
	}
	if hostsWithSubs == 0 {
		t.Error("no host ever used a subdomain")
	}
}

func TestCorpusAccessors(t *testing.T) {
	t.Parallel()
	c := smallCorpus(t, ProfileRandom, 20)
	if got := len(c.AllURLs()); got != c.TotalURLs() {
		t.Errorf("AllURLs len %d != TotalURLs %d", got, c.TotalURLs())
	}
	if ProfileAlexa.String() != "Alexa" || ProfileRandom.String() != "Random" ||
		Profile(9).String() == "" {
		t.Error("Profile.String misbehaves")
	}
}
