package lookupapi

import (
	"context"
	"testing"
	"time"

	"sbprivacy/internal/sbclient"
	"sbprivacy/internal/sbserver"
)

const list = "goog-malware-shavar"

func fixture(t *testing.T) (*sbserver.Server, *Server) {
	t.Helper()
	backend := sbserver.New()
	if err := backend.CreateList(list, "malware"); err != nil {
		t.Fatalf("CreateList: %v", err)
	}
	if err := backend.AddExpressions(list, []string{"evil.example/", "bad.example/attack.html"}); err != nil {
		t.Fatalf("AddExpressions: %v", err)
	}
	lookup := NewServer(backend, []string{list}).WithClock(func() time.Time { return time.Unix(99, 0) })
	return backend, lookup
}

func TestLookupVerdicts(t *testing.T) {
	t.Parallel()
	_, lookup := fixture(t)
	verdicts, err := lookup.Lookup("client-1", []string{
		"http://clean.example/",
		"http://evil.example/anything/under/it", // domain blacklisted
		"http://bad.example/attack.html",
		"http://bad.example/other.html", // only attack.html is listed
		"",                              // invalid
	})
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	want := []string{"ok", list, list, "ok", "invalid"}
	for i := range want {
		if verdicts[i] != want[i] {
			t.Errorf("verdict[%d] = %q, want %q", i, verdicts[i], want[i])
		}
	}
}

// TestFullBrowsingHistoryLeaks is the point of the package: the provider
// logs every checked URL in clear, malicious or not — the privacy flaw
// that motivated the v3 prefix design.
func TestFullBrowsingHistoryLeaks(t *testing.T) {
	t.Parallel()
	_, lookup := fixture(t)
	urls := []string{
		"http://clean.example/my/private/document.html",
		"http://medical.example/condition?q=embarrassing",
	}
	if _, err := lookup.Lookup("victim", urls); err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	log := lookup.URLLog()
	if len(log) != 2 {
		t.Fatalf("log = %d entries", len(log))
	}
	if log[0].URL != "clean.example/my/private/document.html" {
		t.Errorf("log[0] = %q", log[0].URL)
	}
	if log[1].URL != "medical.example/condition?q=embarrassing" {
		t.Errorf("log[1] = %q", log[1].URL)
	}
	for _, e := range log {
		if e.ClientID != "victim" || !e.Time.Equal(time.Unix(99, 0)) {
			t.Errorf("entry = %+v", e)
		}
	}
}

// TestExposureComparisonV3 contrasts the two APIs on identical browsing:
// the Lookup API logs every URL in clear; the v3 client reveals nothing
// for misses and only 32-bit prefixes for hits.
func TestExposureComparisonV3(t *testing.T) {
	t.Parallel()
	backend, lookup := fixture(t)

	browsing := []string{
		"http://clean-1.example/a",
		"http://clean-2.example/b",
		"http://clean-3.example/c",
		"http://evil.example/",
	}

	// Lookup API exposure: all four URLs in clear.
	if _, err := lookup.Lookup("user", browsing); err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if got := len(lookup.URLLog()); got != 4 {
		t.Fatalf("lookup log = %d", got)
	}

	// v3 exposure: one probe with one prefix (only the hit).
	v3 := sbclient.New(sbclient.LocalTransport{Server: backend}, []string{list},
		sbclient.WithCookie("user"))
	ctx := context.Background()
	if err := v3.Update(ctx, true); err != nil {
		t.Fatalf("Update: %v", err)
	}
	for _, u := range browsing {
		if _, err := v3.CheckURL(ctx, u); err != nil {
			t.Fatalf("CheckURL: %v", err)
		}
	}
	probes := backend.Probes()
	if len(probes) != 1 {
		t.Fatalf("v3 probes = %d, want 1", len(probes))
	}
	if len(probes[0].Prefixes) != 1 {
		t.Fatalf("v3 leaked %v", probes[0].Prefixes)
	}
}

func TestLookupBatchLimit(t *testing.T) {
	t.Parallel()
	_, lookup := fixture(t)
	big := make([]string, maxBatch+1)
	for i := range big {
		big[i] = "http://x.example/"
	}
	if _, err := lookup.Lookup("c", big); err == nil {
		t.Error("oversized batch: want error")
	}
}

// TestDirectClient: an in-process caller gets one verdict per URL, and
// the provider logs the URL under that caller's identity.
func TestDirectClient(t *testing.T) {
	t.Parallel()
	_, lookup := fixture(t)
	verdicts, err := lookup.Lookup("direct", []string{"http://evil.example/"})
	if err != nil || len(verdicts) != 1 || verdicts[0] != list {
		t.Errorf("verdicts = %v, err = %v", verdicts, err)
	}
	log := lookup.URLLog()
	if len(log) != 1 || log[0].ClientID != "direct" || log[0].URL != "evil.example/" {
		t.Errorf("log = %+v", log)
	}
}
