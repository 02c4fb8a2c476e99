package mitigation

import (
	"context"
	"testing"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/sbclient"
	"sbprivacy/internal/sbserver"
)

// policyFixture wires a real client/server pair with a QueryPolicy
// installed, the path the campaign ablation exercises.
type policyFixture struct {
	server *sbserver.Server
	client *sbclient.Client
}

func newPolicyFixture(t *testing.T, policy sbclient.QueryPolicy, blacklisted ...string) *policyFixture {
	t.Helper()
	srv := sbserver.New()
	if err := srv.CreateList("goog-malware-shavar", "malware"); err != nil {
		t.Fatalf("CreateList: %v", err)
	}
	if err := srv.AddExpressions("goog-malware-shavar", blacklisted); err != nil {
		t.Fatalf("AddExpressions: %v", err)
	}
	cl := sbclient.New(sbclient.LocalTransport{Server: srv}, []string{"goog-malware-shavar"},
		sbclient.WithCookie("policy-client"), sbclient.WithQueryPolicy(policy))
	if err := cl.Update(context.Background(), true); err != nil {
		t.Fatalf("Update: %v", err)
	}
	return &policyFixture{server: srv, client: cl}
}

// probes drains the async pipeline and returns the server's probe log.
func (f *policyFixture) probes() []sbserver.Probe {
	f.server.Flush()
	return f.server.Probes()
}

// TestDummyPolicyEndToEnd: the verdict is unchanged, but every request
// carries K dummies per real prefix and the stats split accordingly.
func TestDummyPolicyEndToEnd(t *testing.T) {
	t.Parallel()
	f := newPolicyFixture(t, DummyPolicy{K: 3}, "evil.example/attack.html")

	v, err := f.client.CheckURL(context.Background(), "http://evil.example/attack.html")
	if err != nil {
		t.Fatalf("CheckURL: %v", err)
	}
	if v.Safe {
		t.Error("blacklisted URL judged safe under dummy padding")
	}
	st := f.client.Stats()
	if st.RealPrefixesSent != 1 || st.DummyPrefixesSent != 3 {
		t.Errorf("real/dummy = %d/%d, want 1/3", st.RealPrefixesSent, st.DummyPrefixesSent)
	}
	probes := f.probes()
	if len(probes) != 1 {
		t.Fatalf("server saw %d probes, want 1", len(probes))
	}
	if got := len(probes[0].Prefixes); got != 4 {
		t.Errorf("probe carried %d prefixes, want 4 (1 real + 3 dummies)", got)
	}
	// The real prefix hides among the dummies.
	real := hashx.SumPrefix("evil.example/attack.html")
	found := false
	for _, p := range probes[0].Prefixes {
		if p == real {
			found = true
		}
	}
	if !found {
		t.Error("real prefix missing from the padded probe")
	}
}

// consentFixture builds the paper's stage-2 dilemma: a blacklisted deep
// page plus an orphan root prefix, so the root query is inconclusive
// and the remaining prefix would identify the exact URL.
func consentFixture(t *testing.T, policy sbclient.QueryPolicy) *policyFixture {
	t.Helper()
	f := newPolicyFixture(t, policy, "evil.example/attack.html")
	if err := f.server.AddOrphanPrefixes("goog-malware-shavar",
		[]hashx.Prefix{hashx.SumPrefix("evil.example/")}); err != nil {
		t.Fatalf("AddOrphanPrefixes: %v", err)
	}
	if err := f.client.Update(context.Background(), true); err != nil {
		t.Fatalf("Update: %v", err)
	}
	return f
}

// TestOnePrefixPolicyConsentDeclined is the satellite's consent-path
// contract: no Type I page → consent is requested exactly once; the
// user declines → only the root prefix ever reached the provider, and
// the residual (exact-URL-identifying) prefix is withheld.
func TestOnePrefixPolicyConsentDeclined(t *testing.T) {
	t.Parallel()
	oracle := &ScriptedConsent{Allow: false}
	f := consentFixture(t, &OnePrefixPolicy{Consent: oracle})

	v, err := f.client.CheckURL(context.Background(), "http://evil.example/attack.html")
	if err != nil {
		t.Fatalf("CheckURL: %v", err)
	}
	if !v.Safe {
		t.Error("unresolved lookup must stay safe")
	}
	if oracle.Prompts() != 1 {
		t.Errorf("consent prompts = %d, want 1", oracle.Prompts())
	}
	rootPrefix := hashx.SumPrefix("evil.example/")
	pagePrefix := hashx.SumPrefix("evil.example/attack.html")
	probes := f.probes()
	if len(probes) != 1 {
		t.Fatalf("server saw %d probes, want 1 (root stage only)", len(probes))
	}
	for _, p := range probes[0].Prefixes {
		if p == pagePrefix {
			t.Error("declined consent leaked the exact-URL prefix")
		}
	}
	if len(probes[0].Prefixes) != 1 || probes[0].Prefixes[0] != rootPrefix {
		t.Errorf("root probe = %v, want only %v", probes[0].Prefixes, rootPrefix)
	}
	st := f.client.Stats()
	if st.PrefixesWithheld != 1 {
		t.Errorf("PrefixesWithheld = %d, want 1", st.PrefixesWithheld)
	}
	if len(v.WithheldPrefixes) != 1 || v.WithheldPrefixes[0] != pagePrefix {
		t.Errorf("WithheldPrefixes = %v, want [%v]", v.WithheldPrefixes, pagePrefix)
	}
}

// TestOnePrefixPolicyConsentGranted: the same dilemma with a consenting
// user completes the lookup in two stages and confirms the attack page.
func TestOnePrefixPolicyConsentGranted(t *testing.T) {
	t.Parallel()
	oracle := &ScriptedConsent{Allow: true}
	f := consentFixture(t, &OnePrefixPolicy{Consent: oracle})

	v, err := f.client.CheckURL(context.Background(), "http://evil.example/attack.html")
	if err != nil {
		t.Fatalf("CheckURL: %v", err)
	}
	if v.Safe || len(v.Matches) != 1 || v.Matches[0].Expression != "evil.example/attack.html" {
		t.Errorf("consented lookup failed to confirm the blacklisted page: %+v", v)
	}
	if oracle.Prompts() != 1 {
		t.Errorf("consent prompts = %d, want 1", oracle.Prompts())
	}
	if probes := f.probes(); len(probes) != 2 {
		t.Errorf("server saw %d probes, want 2 (root, then rest)", len(probes))
	}
	if st := f.client.Stats(); st.PrefixesWithheld != 0 {
		t.Errorf("PrefixesWithheld = %d, want 0", st.PrefixesWithheld)
	}
}

// TestOnePrefixPolicyRootMalicious: a malicious root is confirmed with
// one request and no consent prompt — the rest never goes out.
func TestOnePrefixPolicyRootMalicious(t *testing.T) {
	t.Parallel()
	oracle := &ScriptedConsent{Allow: false}
	f := newPolicyFixture(t, &OnePrefixPolicy{Consent: oracle},
		"evil.example/", "evil.example/attack.html")

	v, err := f.client.CheckURL(context.Background(), "http://evil.example/attack.html")
	if err != nil {
		t.Fatalf("CheckURL: %v", err)
	}
	if v.Safe || len(v.Matches) != 1 || v.Matches[0].Expression != "evil.example/" {
		t.Errorf("malicious root not confirmed: %+v", v)
	}
	if oracle.Prompts() != 0 {
		t.Errorf("consent prompts = %d, want 0", oracle.Prompts())
	}
	// Strictly less than the vanilla client leaks: one request, and in
	// it the root prefix alone.
	probes := f.probes()
	if len(probes) != 1 {
		t.Fatalf("server saw %d probes, want 1", len(probes))
	}
	if got := probes[0].Prefixes; len(got) != 1 || got[0] != hashx.SumPrefix("evil.example/") {
		t.Errorf("probe = %v, want only the root prefix", got)
	}
}

// TestOnePrefixPolicyCachedMaliciousStops: once the cache already
// confirms a site's root malicious, later lookups on that site must
// neither prompt nor leak — the verdict is determined before the wire.
func TestOnePrefixPolicyCachedMaliciousStops(t *testing.T) {
	t.Parallel()
	oracle := &ScriptedConsent{Allow: true}
	f := newPolicyFixture(t, &OnePrefixPolicy{Consent: oracle},
		"evil.example/", "evil.example/attack.html", "evil.example/attack2.html")

	// First lookup: the root goes out, confirms malicious, gets cached.
	v, err := f.client.CheckURL(context.Background(), "http://evil.example/attack.html")
	if err != nil {
		t.Fatalf("CheckURL: %v", err)
	}
	if v.Safe {
		t.Fatal("malicious root not confirmed")
	}
	if probes := f.probes(); len(probes) != 1 {
		t.Fatalf("server saw %d probes, want 1", len(probes))
	}

	// Second lookup on the same site within the cache TTL: the cached
	// root answer settles the verdict; nothing more may leak and the
	// user must not be prompted for outcome-irrelevant prefixes.
	v, err = f.client.CheckURL(context.Background(), "http://evil.example/attack2.html")
	if err != nil {
		t.Fatalf("CheckURL: %v", err)
	}
	if v.Safe {
		t.Error("cached malicious root must keep the verdict unsafe")
	}
	if oracle.Prompts() != 0 {
		t.Errorf("consent prompts = %d, want 0 (verdict already determined)", oracle.Prompts())
	}
	if probes := f.probes(); len(probes) != 1 {
		t.Errorf("server saw %d probes, want still 1 (no residual leak)", len(probes))
	}
	if st := f.client.Stats(); st.PrefixesWithheld != 0 {
		t.Errorf("PrefixesWithheld = %d, want 0 (lookup resolved malicious)", st.PrefixesWithheld)
	}
}

// TestOnePrefixPolicyTypeIProceeds: Type I ambiguity lets stage 2 out
// without a prompt.
func TestOnePrefixPolicyTypeIProceeds(t *testing.T) {
	t.Parallel()
	oracle := &ScriptedConsent{Allow: false}
	f := consentFixture(t, &OnePrefixPolicy{
		HasTypeI: func(string) bool { return true },
		Consent:  oracle,
	})
	v, err := f.client.CheckURL(context.Background(), "http://evil.example/attack.html")
	if err != nil {
		t.Fatalf("CheckURL: %v", err)
	}
	if v.Safe {
		t.Error("Type I path failed to confirm the attack page")
	}
	if oracle.Prompts() != 0 {
		t.Errorf("consent prompts = %d, want 0 (Type I made it unnecessary)", oracle.Prompts())
	}
	if probes := f.probes(); len(probes) != 2 {
		t.Errorf("server saw %d probes, want 2 (root, then rest)", len(probes))
	}
}

// TestOnePrefixSafeMiss: a lookup with nothing to resolve — no local
// hit, or a URL that does not canonicalize — sends nothing, whatever the
// policy.
func TestOnePrefixSafeMiss(t *testing.T) {
	t.Parallel()
	f := newPolicyFixture(t, &OnePrefixPolicy{Dummies: 4}, "evil.example/")

	v, err := f.client.CheckURL(context.Background(), "http://clean.example/")
	if err != nil {
		t.Fatalf("CheckURL: %v", err)
	}
	if !v.Safe || len(v.SentPrefixes) != 0 || len(v.WithheldPrefixes) != 0 {
		t.Errorf("verdict = %+v, want safe with nothing sent or withheld", v)
	}
	if _, err := f.client.CheckURL(context.Background(), ""); err == nil {
		t.Error("CheckURL(\"\"): want error")
	}
	if st := f.client.Stats(); st.FullHashRequests != 0 || st.PrefixesSent != 0 {
		t.Errorf("stats = %+v, want no request", st)
	}
	if probes := f.probes(); len(probes) != 0 {
		t.Errorf("server saw %d probes, want 0", len(probes))
	}
}

// TestDummiesWidenLeakedSet: the two countermeasures compose — the
// one-prefix policy's root stage carries the root prefix plus its
// padding, and the padding does not disturb the verdict.
func TestDummiesWidenLeakedSet(t *testing.T) {
	t.Parallel()
	f := newPolicyFixture(t, &OnePrefixPolicy{Dummies: 7}, "evil.example/")

	v, err := f.client.CheckURL(context.Background(), "http://evil.example/")
	if err != nil {
		t.Fatalf("CheckURL: %v", err)
	}
	if v.Safe {
		t.Error("blacklisted root judged safe under padding")
	}
	if len(v.SentPrefixes) != 8 {
		t.Errorf("leaked = %d prefixes, want 8 (1 real + 7 dummies)", len(v.SentPrefixes))
	}
	st := f.client.Stats()
	if st.RealPrefixesSent != 1 || st.DummyPrefixesSent != 7 {
		t.Errorf("real/dummy = %d/%d, want 1/7", st.RealPrefixesSent, st.DummyPrefixesSent)
	}
}
