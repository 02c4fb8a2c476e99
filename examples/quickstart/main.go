// Quickstart: run a Safe Browsing server and client in one process and
// check a handful of URLs, printing both the safety verdict and — this
// being a privacy-analysis library — exactly what each lookup revealed
// to the provider.
package main

import (
	"context"
	"fmt"
	"log"

	"sbprivacy/internal/sbclient"
	"sbprivacy/internal/sbserver"
)

func main() {
	ctx := context.Background()

	// The provider: one malware list with a few blacklisted URLs.
	server := sbserver.New()
	const list = "goog-malware-shavar"
	must(server.CreateList(list, "malware"))
	must(server.AddURL(list, "http://malware.example/drive-by-download.html"))
	must(server.AddURL(list, "http://phish.example/"))

	// The client: sync the local prefix database, then browse. The cookie
	// is pinned so the probe log below reads the same on every run.
	client := sbclient.New(
		sbclient.LocalTransport{Server: server},
		[]string{list},
		sbclient.WithCookie("quickstart"),
	)
	must(client.Update(ctx, true))
	fmt.Printf("local database: %d prefixes, %d bytes\n\n",
		client.LocalPrefixCount(list), client.LocalSizeBytes())

	for _, url := range []string{
		"http://golang.org/doc/",                        // clean: no leak
		"http://malware.example/drive-by-download.html", // blacklisted
		"http://phish.example/login?user=me",            // domain blacklisted
	} {
		verdict, err := client.CheckURL(ctx, url)
		must(err)
		status := "safe"
		if !verdict.Safe {
			status = "MALICIOUS"
		}
		fmt.Printf("%-48s %s\n", url, status)
		if len(verdict.SentPrefixes) == 0 {
			fmt.Println("    revealed to provider: nothing (local miss)")
		} else {
			fmt.Printf("    revealed to provider: %v\n", verdict.SentPrefixes)
		}
		for _, m := range verdict.Matches {
			fmt.Printf("    matched %q in %s\n", m.Expression, m.List)
		}
	}

	// The provider's view: the probe log.
	fmt.Println("\nprovider probe log:")
	for _, p := range server.Probes() {
		fmt.Printf("    cookie=%s prefixes=%v\n", p.ClientID, p.Prefixes)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
