// Package sbprivacy is a from-scratch Go reproduction of "A Privacy
// Analysis of Google and Yandex Safe Browsing" (Gerbet, Kumar, Lauradoux
// — INRIA RR-8686, DSN 2016).
//
// The module holds a complete Safe Browsing v3-style client and server
// (local prefix database, incremental chunk updates, full-hash round
// trips, HTTP transport), the client data structures Google deployed
// (Bloom filter and delta-coded table), and the paper's privacy
// machinery: the k-anonymity analysis of hashing-and-truncation, URL
// re-identification from one or more 32-bit prefixes, the Algorithm 1
// tracking system, the blacklist audit (orphan prefixes, database
// inversion, multi-prefix URLs) and the Section 8 mitigations.
//
// The code lives in the internal/ packages (internal/sbserver,
// internal/sbclient, internal/core, internal/stream, ...), which the
// commands under cmd/, the programs under examples/ and this
// directory's cross-package integration tests import directly. This
// package itself exports nothing. The experiment harness behind every
// table and figure of the paper is internal/exp, run by cmd/experiments.
//
// Quick start:
//
//	server := sbserver.New()
//	_ = server.CreateList("goog-malware-shavar", "malware")
//	_ = server.AddURL("goog-malware-shavar", "http://evil.example/attack")
//
//	client := sbclient.New(
//		sbclient.LocalTransport{Server: server},
//		[]string{"goog-malware-shavar"},
//		sbclient.WithCookie("api-test"),
//	)
//	_ = client.Update(ctx, true)
//	verdict, _ := client.CheckURL(ctx, "http://evil.example/attack")
//	// verdict.Safe == false; verdict.SentPrefixes is what leaked.
package sbprivacy
