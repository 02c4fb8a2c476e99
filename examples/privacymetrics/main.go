// Privacymetrics: quantify the privacy of hashing-and-truncation, as in
// the paper's Section 5 and 6.2. Computes the Table 5 balls-into-bins
// grid analytically, then measures the k-anonymity that a synthetic web
// corpus actually provides against a provider-side index.
package main

import (
	"fmt"
	"log"
	"math"

	"sbprivacy/internal/ballsbins"
	"sbprivacy/internal/core"
	"sbprivacy/internal/corpus"
	"sbprivacy/internal/hashx"
)

func main() {
	// Analytic: how many URLs share a prefix at Internet scale?
	fmt.Println("Table 5 (analytic): max URLs per prefix, 60 trillion URLs")
	for _, bits := range []int{16, 32, 64, 96} {
		n := math.Pow(2, float64(bits))
		poisson, err := ballsbins.PoissonMaxLoad(60e12, n)
		must(err)
		theorem, regime, err := ballsbins.MaxLoad(ballsbins.Params{Balls: 60e12, Bins: n})
		must(err)
		fmt.Printf("    %2d bits: poisson=%-9d theorem=%-12.0f (%v)\n", bits, poisson, theorem, regime)
	}
	fmt.Println("    -> 32-bit prefixes hide a URL among ~15k others;" +
		" 64+ bits identify it almost uniquely")

	// Empirical: generate a corpus, index it like the provider would,
	// and measure anonymity sets.
	corpusData, err := corpus.Generate(corpus.Config{
		Profile: corpus.ProfileRandom,
		Hosts:   2000,
		Seed:    7,
	})
	must(err)
	index := core.NewIndex(corpusData.AllURLs())
	fmt.Printf("\nsynthetic corpus: %d URLs across %d hosts, indexed\n",
		corpusData.TotalURLs(), len(corpusData.Hosts))

	_, maxK := index.MaxKAnonymity()
	_, minK := index.MinKAnonymity()
	hist := index.KAnonymityHistogram()
	fmt.Printf("k-anonymity across live prefixes: min=%d max=%d\n", minK, maxK)
	fmt.Printf("prefixes with k=1 (fully re-identifiable): %d of %d\n",
		hist[1], sum(hist))

	// Domain roots are uniquely re-identifiable, as Section 5 concludes.
	domain := corpusData.Hosts[0].Domain
	p := hashx.SumPrefix(domain + "/")
	fmt.Printf("\nk-anonymity of %s/ prefix: %d (domains re-identify with certainty)\n",
		domain, index.KAnonymity(p))
}

func sum(h map[int]int) int {
	total := 0
	for _, n := range h {
		total += n
	}
	return total
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
