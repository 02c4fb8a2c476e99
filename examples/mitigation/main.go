// Mitigation: the Section 8 countermeasures in action. Compares what a
// vanilla client leaks against the dummy-padded and one-prefix-at-a-time
// strategies, on both a single-prefix and a multi-prefix lookup — showing
// where each defence helps and where it fails.
package main

import (
	"context"
	"fmt"
	"log"

	"sbprivacy/internal/core"
	"sbprivacy/internal/hashx"
	"sbprivacy/internal/mitigation"
	"sbprivacy/internal/sbclient"
	"sbprivacy/internal/sbserver"
)

const list = "ydx-porno-hosts-top-shavar"

func main() {
	ctx := context.Background()

	// The provider blacklists both xhamster.com/ and its French mirror —
	// the paper's Table 12 multi-prefix situation.
	server := sbserver.New()
	must(server.CreateList(list, "pornography"))
	must(server.AddExpressions(server.ListNames()[0],
		[]string{"fr.xhamster.com/", "xhamster.com/"}))

	// Vanilla client: both prefixes leak in one request.
	vanilla := sbclient.New(sbclient.LocalTransport{Server: server},
		[]string{list}, sbclient.WithCookie("vanilla"))
	must(vanilla.Update(ctx, true))
	v, err := vanilla.CheckURL(ctx, "http://fr.xhamster.com/user/video")
	must(err)
	fmt.Printf("vanilla client leaked: %v\n", v.SentPrefixes)

	// The provider's index re-identifies the domain from that pair.
	index := core.NewIndex([]string{
		"fr.xhamster.com/user/video", "fr.xhamster.com/", "xhamster.com/",
		"news.example/", "blog.example/post",
	})
	re := index.Reidentify(v.SentPrefixes)
	fmt.Printf("provider re-identifies: domain=%s candidates=%v\n\n",
		re.CommonDomain, re.Candidates)

	// Mitigated client: the same client code with a query policy that
	// sends the root prefix first and pads every request with dummies.
	mitigated := sbclient.New(sbclient.LocalTransport{Server: server},
		[]string{list}, sbclient.WithCookie("mitigated"),
		sbclient.WithQueryPolicy(&mitigation.OnePrefixPolicy{Dummies: 4}))
	must(mitigated.Update(ctx, true))
	m, err := mitigated.CheckURL(ctx, "http://fr.xhamster.com/user/video")
	must(err)
	outcome := "malicious"
	if m.Safe {
		outcome = "safe"
	}
	fmt.Printf("mitigated client: outcome=%s requests=%d leaked=%d prefixes\n",
		outcome, mitigated.Stats().FullHashRequests, len(m.SentPrefixes))
	fmt.Println("    (root queried first; padded with deterministic dummies)")

	// The single-prefix k-anonymity gain from dummies.
	before, after := mitigation.SingleKAnonymityGain(
		hashx.SumPrefix("xhamster.com/"), 4, index.KAnonymity)
	fmt.Printf("\ndummy padding, single prefix: k-anonymity %d -> %d\n", before, after)

	// ...and the paper's negative result: the correlated pair still
	// re-identifies the domain even under padding.
	padded := mitigation.AugmentRequest(v.SentPrefixes, 4)
	var indexed []hashx.Prefix
	for _, p := range padded {
		if index.KAnonymity(p) > 0 {
			indexed = append(indexed, p)
		}
	}
	rePadded := index.Reidentify(indexed)
	fmt.Printf("multi-prefix under padding: provider still sees domain=%s\n",
		rePadded.CommonDomain)
	fmt.Println("    -> dummies cannot hide correlated prefixes (Section 8)")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
