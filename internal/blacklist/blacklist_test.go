package blacklist

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/sbserver"
)

func TestInventories(t *testing.T) {
	t.Parallel()
	if len(GoogleLists) != 5 {
		t.Errorf("GoogleLists = %d, want 5 (Table 1)", len(GoogleLists))
	}
	if len(YandexLists) != 19 {
		t.Errorf("YandexLists = %d, want 19 (Table 3)", len(YandexLists))
	}
	if ListsFor(Google) == nil || ListsFor(Yandex) == nil || ListsFor(Provider(9)) != nil {
		t.Error("ListsFor misbehaves")
	}
	if Google.String() != "Google" || Yandex.String() != "Yandex" || Provider(9).String() != "unknown" {
		t.Error("Provider.String misbehaves")
	}
	// Table 11 distributions sum to the list totals where given.
	for _, li := range append(append([]ListInfo{}, GoogleLists...), YandexLists...) {
		if li.FullHash0+li.FullHash1+li.FullHash2 == 0 {
			continue
		}
		if sum := li.FullHash0 + li.FullHash1 + li.FullHash2; sum != li.Prefixes {
			t.Errorf("%s: full-hash distribution sums to %d, prefixes %d", li.Name, sum, li.Prefixes)
		}
	}
}

func TestBuildUniverseYandex(t *testing.T) {
	t.Parallel()
	u, err := BuildUniverse(UniverseConfig{Provider: Yandex, Scale: 100, Seed: 1})
	if err != nil {
		t.Fatalf("BuildUniverse: %v", err)
	}
	// Every Table 3 list exists on the server.
	names := u.Server.ListNames()
	if len(names) != len(YandexLists) {
		t.Fatalf("server lists = %d, want %d", len(names), len(YandexLists))
	}
	// Scaled sizes approximate the paper's counts / 100.
	n, err := u.Server.ListLen("ydx-malware-shavar")
	if err != nil {
		t.Fatalf("ListLen: %v", err)
	}
	want := 283211 / 100
	if math.Abs(float64(n-want)) > float64(want)/10 {
		t.Errorf("ydx-malware-shavar size = %d, want ~%d", n, want)
	}
	// All four datasets built.
	if len(u.Datasets()) != 4 {
		t.Errorf("datasets = %d", len(u.Datasets()))
	}
	if _, err := BuildUniverse(UniverseConfig{Provider: Provider(42)}); err == nil {
		t.Error("unknown provider: want error")
	}
}

// TestDatasetsLazyDeterministicConcurrent: the Table 9 corpora are built
// on first use, so concurrent first callers must all see the one build,
// and it must be what a second same-seed universe builds.
func TestDatasetsLazyDeterministicConcurrent(t *testing.T) {
	t.Parallel()
	build := func() *Universe {
		u, err := BuildUniverse(UniverseConfig{Provider: Yandex, Scale: 500, Seed: 7})
		if err != nil {
			t.Fatalf("BuildUniverse: %v", err)
		}
		return u
	}
	u := build()
	got := make([]map[string][]string, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = u.Datasets()
		}(i)
	}
	wg.Wait()
	want := build().Datasets()
	for i, ds := range got {
		if !reflect.DeepEqual(ds, want) {
			t.Fatalf("caller %d saw corpora differing from a same-seed build", i)
		}
	}
}

// TestAuditOrphansMatchesTable11 verifies the audit reproduces the
// planted (paper-measured) orphan rates on key Yandex lists.
func TestAuditOrphansMatchesTable11(t *testing.T) {
	t.Parallel()
	u, err := BuildUniverse(UniverseConfig{Provider: Yandex, Scale: 100, Seed: 2})
	if err != nil {
		t.Fatalf("BuildUniverse: %v", err)
	}
	tests := []struct {
		list     string
		wantRate float64 // paper's orphan share
		tol      float64
	}{
		{"ydx-phish-shavar", 0.99, 0.03},      // 31325/31593
		{"ydx-mitb-masks-shavar", 1.00, 0.01}, // 87/87
		{"ydx-yellow-shavar", 1.00, 0.01},     // 209/209
		{"ydx-sms-fraud-shavar", 0.95, 0.03},  // 10162/10609
		{"ydx-malware-shavar", 0.015, 0.01},   // 4184/283211
		{"ydx-porno-hosts-top-shavar", 0.0024, 0.01},
	}
	for _, tc := range tests {
		report, err := AuditOrphans(u.Server, tc.list)
		if err != nil {
			t.Fatalf("AuditOrphans(%s): %v", tc.list, err)
		}
		if got := report.OrphanRate(); math.Abs(got-tc.wantRate) > tc.tol {
			t.Errorf("%s orphan rate = %.4f, want %.4f +/- %.2f (report %+v)",
				tc.list, got, tc.wantRate, tc.tol, report)
		}
	}
}

// TestAuditOrphansTinyLists: lists with a few hundred entries need a
// finer scale for their rates to survive integer rounding.
func TestAuditOrphansTinyLists(t *testing.T) {
	t.Parallel()
	u, err := BuildUniverse(UniverseConfig{Provider: Yandex, Scale: 10, Seed: 7})
	if err != nil {
		t.Fatalf("BuildUniverse: %v", err)
	}
	report, err := AuditOrphans(u.Server, "ydx-adult-shavar")
	if err != nil {
		t.Fatalf("AuditOrphans: %v", err)
	}
	if got := report.OrphanRate(); math.Abs(got-0.43) > 0.05 { // 184/434
		t.Errorf("ydx-adult-shavar orphan rate = %.4f, want ~0.43 (%+v)", got, report)
	}
}

// TestAuditOrphansGoogleSmallRates: Google's lists have very few orphans
// (36 and 123 at full scale).
func TestAuditOrphansGoogle(t *testing.T) {
	t.Parallel()
	u, err := BuildUniverse(UniverseConfig{Provider: Google, Scale: 100, Seed: 3})
	if err != nil {
		t.Fatalf("BuildUniverse: %v", err)
	}
	report, err := AuditOrphans(u.Server, "goog-malware-shavar")
	if err != nil {
		t.Fatalf("AuditOrphans: %v", err)
	}
	if report.OrphanRate() > 0.01 {
		t.Errorf("Google malware orphan rate = %.4f, want < 0.01", report.OrphanRate())
	}
	if report.Two == 0 {
		t.Error("no two-digest prefixes planted (Table 11 column 2)")
	}
	if report.Zero == 0 {
		t.Error("no orphans planted at all")
	}
	if report.More != 0 {
		t.Errorf("unexpected 3+ digest prefixes: %d", report.More)
	}
}

func TestAuditOrphansUnknownList(t *testing.T) {
	t.Parallel()
	s := sbserver.New()
	if _, err := AuditOrphans(s, "nope"); err == nil {
		t.Error("unknown list: want error")
	}
}

// TestInvertMatchesTable10 verifies the inversion rates against the
// planted overlaps for representative cells of Table 10.
func TestInvertMatchesTable10(t *testing.T) {
	t.Parallel()
	u, err := BuildUniverse(UniverseConfig{Provider: Yandex, Scale: 100, Seed: 4})
	if err != nil {
		t.Fatalf("BuildUniverse: %v", err)
	}
	tests := []struct {
		list, dataset string
		want          float64
		tol           float64
	}{
		{"ydx-malware-shavar", "DNS Census-13", 0.31, 0.02},
		{"ydx-malware-shavar", "Malware list", 0.156, 0.02},
		{"ydx-porno-hosts-top-shavar", "DNS Census-13", 0.557, 0.02},
		{"ydx-phish-shavar", "Phishing list", 0.049, 0.02},
	}
	for _, tc := range tests {
		res, err := Invert(u.Server, tc.list, tc.dataset, u.Datasets()[tc.dataset])
		if err != nil {
			t.Fatalf("Invert(%s, %s): %v", tc.list, tc.dataset, err)
		}
		if math.Abs(res.Rate-tc.want) > tc.tol {
			t.Errorf("%s x %s rate = %.4f, want %.3f +/- %.2f",
				tc.list, tc.dataset, res.Rate, tc.want, tc.tol)
		}
		if res.Matches != len(res.Recovered) {
			t.Errorf("%s x %s: Matches %d != len(Recovered) %d",
				tc.list, tc.dataset, res.Matches, len(res.Recovered))
		}
	}
}

// TestInvertRecoversCleartext: recovered entries really do hash to list
// prefixes.
func TestInvertRecoversCleartext(t *testing.T) {
	t.Parallel()
	u, err := BuildUniverse(UniverseConfig{Provider: Google, Scale: 200, Seed: 5})
	if err != nil {
		t.Fatalf("BuildUniverse: %v", err)
	}
	res, err := Invert(u.Server, "goog-malware-shavar", "DNS Census-13", u.Datasets()["DNS Census-13"])
	if err != nil {
		t.Fatalf("Invert: %v", err)
	}
	if res.Matches == 0 {
		t.Fatal("no matches recovered")
	}
	for p, expr := range res.Recovered {
		if hashx.SumPrefix(expr) != p {
			t.Fatalf("recovered %q does not hash to %v", expr, p)
		}
	}
}

func TestInvertUnknownList(t *testing.T) {
	t.Parallel()
	s := sbserver.New()
	if _, err := Invert(s, "nope", "ds", nil); err == nil {
		t.Error("unknown list: want error")
	}
}

// TestFindMultiPrefixTable12 plants the paper's Table 12 URLs and
// verifies the scan finds exactly them with their published prefix pairs.
func TestFindMultiPrefixTable12(t *testing.T) {
	t.Parallel()
	u, err := BuildUniverse(UniverseConfig{Provider: Yandex, Scale: 1000, Seed: 6})
	if err != nil {
		t.Fatalf("BuildUniverse: %v", err)
	}
	if err := u.PlantTable12("ydx-malware-shavar"); err != nil {
		t.Fatalf("PlantTable12: %v", err)
	}
	candidates := append(u.Table12Candidates(),
		"http://clean.example/page", "http://also-clean.example/")
	hits, err := FindMultiPrefixURLs(u.Server, []string{"ydx-malware-shavar"}, candidates, 2)
	if err != nil {
		t.Fatalf("FindMultiPrefixURLs: %v", err)
	}
	if len(hits) != len(u.Table12Candidates()) {
		t.Fatalf("hits = %d, want %d", len(hits), len(u.Table12Candidates()))
	}
	// Check one pinned pair: fr.xhamster.com 0xe4fdd86c + 0x3074e021.
	found := false
	for _, h := range hits {
		if h.URL == "http://fr.xhamster.com/user/video" {
			found = true
			if len(h.Prefixes) != 2 {
				t.Errorf("fr.xhamster hits = %v", h.Prefixes)
			}
			want := map[hashx.Prefix]bool{0xe4fdd86c: true, 0x3074e021: true}
			for _, p := range h.Prefixes {
				if !want[p] {
					t.Errorf("unexpected prefix %v", p)
				}
			}
			for _, l := range h.Lists {
				if l != "ydx-malware-shavar" {
					t.Errorf("unexpected list %q", l)
				}
			}
		}
	}
	if !found {
		t.Error("fr.xhamster.com candidate not flagged")
	}
}

func TestFindMultiPrefixSkipsMalformed(t *testing.T) {
	t.Parallel()
	s := sbserver.New()
	if err := s.CreateList("l", "test"); err != nil {
		t.Fatalf("CreateList: %v", err)
	}
	if err := s.AddExpressions("l", []string{"a.example/", "b.a.example/"}); err != nil {
		t.Fatalf("AddExpressions: %v", err)
	}
	hits, err := FindMultiPrefixURLs(s, []string{"l"}, []string{"", "http://b.a.example/x"}, 0)
	if err != nil {
		t.Fatalf("FindMultiPrefixURLs: %v", err)
	}
	if len(hits) != 1 || len(hits[0].Prefixes) != 2 {
		t.Errorf("hits = %+v", hits)
	}
	if _, err := FindMultiPrefixURLs(s, []string{"ghost"}, nil, 2); err == nil {
		t.Error("unknown list: want error")
	}
}
