// Advisor: the paper's future-work browser plugin. Before each lookup,
// the advisor computes what would be revealed — nothing, a k-anonymous
// prefix, the domain, or the exact URL — and contrasts the v3 protocol's
// leak with the deprecated plaintext Lookup API checking the same pages.
package main

import (
	"fmt"
	"log"

	"sbprivacy/internal/advisor"
	"sbprivacy/internal/core"
	"sbprivacy/internal/hashx"
	"sbprivacy/internal/lookupapi"
	"sbprivacy/internal/prefixdb"
	"sbprivacy/internal/sbserver"
)

func main() {
	// The provider blacklists the PETS site pieces (a tracking plan) and
	// one ordinary malware page.
	server := sbserver.New()
	const list = "goog-malware-shavar"
	must(server.CreateList(list, "malware"))
	blacklisted := []string{
		"petsymposium.org/",
		"petsymposium.org/2016/cfp.php",
		"malware.example/drive-by.html",
	}
	must(server.AddExpressions(list, blacklisted))

	// The advisor sees the same local database the client would use, and
	// carries a provider-view index to reason about re-identification.
	prefixes := make([]hashx.Prefix, len(blacklisted))
	for i, e := range blacklisted {
		prefixes[i] = hashx.SumPrefix(e)
	}
	adv := &advisor.Advisor{
		Stores: []advisor.NamedStore{{List: list, Store: prefixdb.NewDeltaStore(prefixes)}},
		Index: core.NewIndex([]string{
			"petsymposium.org/",
			"petsymposium.org/2016/cfp.php",
			"petsymposium.org/2016/links.php",
			"malware.example/drive-by.html",
		}),
	}

	urls := []string{
		"http://nytimes.example/article",        // no hit
		"http://malware.example/drive-by.html",  // one prefix
		"https://petsymposium.org/2016/cfp.php", // two prefixes: exact!
	}
	fmt.Println("pre-lookup privacy advice (v3 protocol):")
	for _, u := range urls {
		rep, err := adv.Advise(u)
		must(err)
		fmt.Printf("  %-42s risk=%-24s %s\n", u, rep.Risk, rep.Advice)
	}

	// The same browsing through the deprecated Lookup API leaks
	// everything, malicious or not.
	lookup := lookupapi.NewServer(server, []string{list})
	_, err := lookup.Lookup("same-user", urls)
	must(err)
	fmt.Println("\nthe deprecated Lookup API's log after the same browsing:")
	for _, e := range lookup.URLLog() {
		fmt.Printf("  provider saw in clear: %s\n", e.URL)
	}
	fmt.Println("\n-> v3 leaks only on local hits; the Lookup API leaks the full history.")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
