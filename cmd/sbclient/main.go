// Command sbclient syncs a local Safe Browsing database from a server
// and checks URLs against it, printing the Figure 3 decision path and —
// crucially for the paper — what each lookup reveals to the provider.
//
// Usage:
//
//	sbclient -server http://127.0.0.1:8045 -lists goog-malware-shavar \
//	    http://example.com/ http://evil.example/attack
//
// With -state FILE the local database survives between runs: FILE holds
// a wire download response with one add chunk per list (see
// sbclient.SaveState). A state file the client cannot read, such as one
// written in the client's earlier "SBST" format, is reported with
// "(starting fresh)" and the lists are downloaded again.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"sbprivacy/internal/sbclient"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		server    = fs.String("server", "http://127.0.0.1:8045", "Safe Browsing server base URL")
		lists     = fs.String("lists", "goog-malware-shavar,googpub-phish-shavar", "comma-separated list names")
		cookie    = fs.String("cookie", "", "Safe Browsing cookie (default: random)")
		statePath = fs.String("state", "", "path to persist the local database across runs")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "sbclient: no URLs given")
		return 2
	}

	var opts []sbclient.Option
	if *cookie != "" {
		opts = append(opts, sbclient.WithCookie(*cookie))
	}
	client := sbclient.New(
		sbclient.HTTPTransport{BaseURL: strings.TrimRight(*server, "/")},
		strings.Split(*lists, ","),
		opts...,
	)

	if *statePath != "" {
		if f, err := os.Open(*statePath); err == nil {
			err = client.LoadState(f)
			f.Close() //nolint:errcheck // read side
			if err != nil {
				fmt.Fprintf(stderr, "sbclient: load state: %v (starting fresh)\n", err)
			} else {
				fmt.Fprintf(stdout, "restored local database from %s\n", *statePath)
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := client.Update(ctx, true); err != nil {
		fmt.Fprintf(stderr, "sbclient: update: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "local database: %d bytes across %s\n", client.LocalSizeBytes(), *lists)

	if *statePath != "" {
		defer func() {
			f, err := os.Create(*statePath)
			if err != nil {
				fmt.Fprintf(stderr, "sbclient: save state: %v\n", err)
				return
			}
			if err := client.SaveState(f); err != nil {
				fmt.Fprintf(stderr, "sbclient: save state: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "sbclient: save state: %v\n", err)
			}
		}()
	}

	exit := 0
	for _, url := range fs.Args() {
		v, err := client.CheckURL(ctx, url)
		if err != nil {
			fmt.Fprintf(stderr, "sbclient: %s: %v\n", url, err)
			exit = 1
			continue
		}
		verdict := "non-malicious"
		if !v.Safe {
			verdict = "MALICIOUS"
		}
		fmt.Fprintf(stdout, "%s -> %s\n", url, verdict)
		fmt.Fprintf(stdout, "  canonical: %s\n", v.Canonical)
		for _, h := range v.LocalHits {
			fmt.Fprintf(stdout, "  local hit: %s (%v) in %s\n", h.Expression, h.Prefix, h.List)
		}
		if len(v.SentPrefixes) > 0 {
			fmt.Fprintf(stdout, "  leaked to provider: %v\n", v.SentPrefixes)
		} else {
			fmt.Fprintf(stdout, "  leaked to provider: nothing\n")
		}
		for _, m := range v.Matches {
			fmt.Fprintf(stdout, "  confirmed: %s in %s\n", m.Expression, m.List)
		}
	}
	return exit
}
