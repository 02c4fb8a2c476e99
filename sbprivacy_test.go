package sbprivacy_test

import (
	"context"
	"testing"

	"sbprivacy/internal/core"
	"sbprivacy/internal/exp"
	"sbprivacy/internal/hashx"
	"sbprivacy/internal/sbclient"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/urlx"
)

// TestPublicAPIQuickstart runs the package documentation's quick start
// line for line.
func TestPublicAPIQuickstart(t *testing.T) {
	t.Parallel()
	ctx := context.Background()

	server := sbserver.New()
	if err := server.CreateList("goog-malware-shavar", "malware"); err != nil {
		t.Fatalf("CreateList: %v", err)
	}
	if err := server.AddURL("goog-malware-shavar", "http://evil.example/attack"); err != nil {
		t.Fatalf("AddURL: %v", err)
	}

	client := sbclient.New(
		sbclient.LocalTransport{Server: server},
		[]string{"goog-malware-shavar"},
		sbclient.WithCookie("api-test"),
	)
	if err := client.Update(ctx, true); err != nil {
		t.Fatalf("Update: %v", err)
	}
	verdict, err := client.CheckURL(ctx, "http://evil.example/attack")
	if err != nil {
		t.Fatalf("CheckURL: %v", err)
	}
	if verdict.Safe {
		t.Error("blacklisted URL judged safe")
	}
	if len(verdict.SentPrefixes) == 0 {
		t.Error("no leak recorded")
	}
}

// TestPublicAPIPrivacyAnalysis drives the analysis entry points.
func TestPublicAPIPrivacyAnalysis(t *testing.T) {
	t.Parallel()
	index := core.NewIndex([]string{
		"petsymposium.org/",
		"petsymposium.org/2016/cfp.php",
	})
	plan, err := core.BuildTrackingPlan(index, "https://petsymposium.org/2016/cfp.php", 4)
	if err != nil {
		t.Fatalf("BuildTrackingPlan: %v", err)
	}
	if len(plan.Prefixes) != 2 {
		t.Errorf("plan prefixes = %v", plan.Prefixes)
	}
	re := index.Reidentify(plan.Prefixes)
	if !re.Exact {
		t.Errorf("plan does not re-identify: %+v", re)
	}
	if p := hashx.SumPrefix("petsymposium.org/2016/cfp.php"); p != 0xe70ee6d1 {
		t.Errorf("SumPrefix = %v", p)
	}
	c, err := urlx.Canonicalize("http://a.b.example.com/x")
	if err != nil {
		t.Fatalf("Canonicalize: %v", err)
	}
	if d := urlx.RegisteredDomain(c.Host); d != "example.com" {
		t.Errorf("RegisteredDomain = %q", d)
	}
}

// TestPublicAPIExperiments runs one experiment through the harness.
func TestPublicAPIExperiments(t *testing.T) {
	t.Parallel()
	if len(exp.IDs()) < 15 {
		t.Fatalf("ExperimentIDs = %v", exp.IDs())
	}
	r, err := exp.Run(context.Background(), "table4", exp.Config{Hosts: 100, Scale: 1000, Seed: 1})
	if err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	if r.ID != "table4" || r.Text == "" {
		t.Errorf("result = %+v", r)
	}
}
