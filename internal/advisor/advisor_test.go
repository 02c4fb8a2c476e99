package advisor

import (
	"strings"
	"testing"

	"sbprivacy/internal/core"
	"sbprivacy/internal/hashx"
	"sbprivacy/internal/prefixdb"
)

func storeOf(exprs ...string) *prefixdb.DeltaStore {
	prefixes := make([]hashx.Prefix, len(exprs))
	for i, e := range exprs {
		prefixes[i] = hashx.SumPrefix(e)
	}
	return prefixdb.NewDeltaStore(prefixes)
}

func TestAdviseNoHit(t *testing.T) {
	t.Parallel()
	a := &Advisor{Stores: []NamedStore{{List: "l", Store: storeOf("evil.example/")}}}
	rep, err := a.Advise("http://clean.example/page")
	if err != nil {
		t.Fatalf("Advise: %v", err)
	}
	if rep.Risk != RiskNone || len(rep.PrefixesToSend) != 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestAdviseSinglePrefixAnalytic(t *testing.T) {
	t.Parallel()
	a := &Advisor{Stores: []NamedStore{{List: "l", Store: storeOf("evil.example/attack.html")}}}
	rep, err := a.Advise("http://evil.example/attack.html")
	if err != nil {
		t.Fatalf("Advise: %v", err)
	}
	if rep.Risk != RiskSingle {
		t.Fatalf("risk = %v", rep.Risk)
	}
	// Analytic k-anonymity at 60e12 URLs / 2^32 prefixes: ~14.7k.
	if k := rep.Hits[0].KAnonymity; k < 10000 || k > 20000 {
		t.Errorf("analytic k-anonymity = %d", k)
	}
	if rep.Hits[0].DomainRoot {
		t.Error("attack.html flagged as domain root")
	}
}

func TestAdviseSingleDomainRootWarns(t *testing.T) {
	t.Parallel()
	a := &Advisor{Stores: []NamedStore{{List: "l", Store: storeOf("evil.example/")}}}
	rep, err := a.Advise("http://evil.example/")
	if err != nil {
		t.Fatalf("Advise: %v", err)
	}
	if rep.Risk != RiskSingle || !rep.Hits[0].DomainRoot {
		t.Fatalf("report = %+v", rep)
	}
	if !strings.Contains(rep.Advice, "SLD") {
		t.Errorf("domain-root advice missing dictionary warning: %q", rep.Advice)
	}
}

func TestAdviseExactWithIndex(t *testing.T) {
	t.Parallel()
	index := core.NewIndex([]string{
		"petsymposium.org/",
		"petsymposium.org/2016/cfp.php",
		"petsymposium.org/2016/links.php",
	})
	a := &Advisor{
		Stores: []NamedStore{{List: "l", Store: storeOf(
			"petsymposium.org/", "petsymposium.org/2016/cfp.php")}},
		Index: index,
	}
	rep, err := a.Advise("https://petsymposium.org/2016/cfp.php")
	if err != nil {
		t.Fatalf("Advise: %v", err)
	}
	if rep.Risk != RiskExact {
		t.Fatalf("risk = %v (%+v)", rep.Risk, rep)
	}
	if len(rep.Candidates) != 1 || rep.Candidates[0] != "petsymposium.org/2016/cfp.php" {
		t.Errorf("candidates = %v", rep.Candidates)
	}
}

func TestAdviseDomainWithIndex(t *testing.T) {
	t.Parallel()
	index := core.NewIndex([]string{
		"fr.xhamster.com/user/video",
		"fr.xhamster.com/other",
		"fr.xhamster.com/",
		"xhamster.com/",
	})
	a := &Advisor{
		Stores: []NamedStore{{List: "l", Store: storeOf("fr.xhamster.com/", "xhamster.com/")}},
		Index:  index,
	}
	rep, err := a.Advise("http://fr.xhamster.com/user/video")
	if err != nil {
		t.Fatalf("Advise: %v", err)
	}
	if rep.Risk != RiskDomain {
		t.Fatalf("risk = %v (%+v)", rep.Risk, rep)
	}
	if rep.CommonDomain != "xhamster.com" {
		t.Errorf("common domain = %q", rep.CommonDomain)
	}
	if len(rep.Candidates) < 2 {
		t.Errorf("candidates = %v", rep.Candidates)
	}
}

func TestAdviseMultiPrefixWithoutIndex(t *testing.T) {
	t.Parallel()
	// Own-expression hit: conservative exact.
	a := &Advisor{Stores: []NamedStore{{List: "l", Store: storeOf(
		"evil.example/attack.html", "evil.example/")}}}
	rep, err := a.Advise("http://evil.example/attack.html")
	if err != nil {
		t.Fatalf("Advise: %v", err)
	}
	if rep.Risk != RiskExact {
		t.Errorf("own-hit risk = %v", rep.Risk)
	}

	// Related-only hits: domain risk.
	b := &Advisor{Stores: []NamedStore{{List: "l", Store: storeOf(
		"sub.evil.example/", "evil.example/")}}}
	rep, err = b.Advise("http://sub.evil.example/page.html")
	if err != nil {
		t.Fatalf("Advise: %v", err)
	}
	if rep.Risk != RiskDomain || rep.CommonDomain != "evil.example" {
		t.Errorf("report = %+v", rep)
	}
}

func TestAdviseIndexOrphanPrefix(t *testing.T) {
	t.Parallel()
	index := core.NewIndex([]string{"other.example/"})
	a := &Advisor{
		Stores: []NamedStore{{List: "l", Store: storeOf("unindexed.example/page")}},
		Index:  index,
	}
	rep, err := a.Advise("http://unindexed.example/page")
	if err != nil {
		t.Fatalf("Advise: %v", err)
	}
	if rep.Risk != RiskSingle || rep.Hits[0].KAnonymity != 1 {
		t.Errorf("report = %+v", rep)
	}
}

func TestAdviseInvalidURL(t *testing.T) {
	t.Parallel()
	a := &Advisor{}
	if _, err := a.Advise(""); err == nil {
		t.Error("empty URL: want error")
	}
}

func TestRiskStrings(t *testing.T) {
	t.Parallel()
	for r, want := range map[Risk]string{
		RiskNone:   "none",
		RiskSingle: "single-prefix",
		RiskDomain: "domain-identifiable",
		RiskExact:  "exact-url-identifiable",
		Risk(9):    "unknown",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), want)
		}
	}
}
