// Package lookupapi implements the original, deprecated Safe Browsing
// Lookup API: the client sends the URL in clear to the provider, which
// answers malicious / ok.
//
// The paper's Section 2.2 recounts why this first design was rejected —
// "URLs were sent in clear to the Google servers. Google could
// potentially capture the browsing history of GSB users" — and the v3
// prefix protocol replaced it. This package exists as the comparison
// baseline: its exposure model (the provider sees every checked URL,
// not just prefixes of local hits) is the worst case that the paper's
// privacy metrics are measured against. Most other vendors' services
// (SmartScreen, Web of Trust, Norton Safe Web, SiteAdvisor) still work
// this way. Callers run in process and call Server.Lookup directly;
// nothing serves the API over HTTP.
package lookupapi

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/urlx"
)

// maxBatch bounds URLs per request.
const maxBatch = 500

// ErrBatchTooLarge reports an oversized lookup batch.
var ErrBatchTooLarge = errors.New("lookupapi: too many URLs in one request")

// URLLogEntry is what the provider records per lookup: the full URL in
// clear, tied to the client identity — the complete browsing history.
type URLLogEntry struct {
	Time     time.Time
	ClientID string
	URL      string // canonical form
}

// Server answers plaintext lookups against an sbserver database. Safe
// for concurrent use.
type Server struct {
	backend *sbserver.Server
	lists   []string

	mu  sync.Mutex
	log []URLLogEntry
	now func() time.Time
}

// NewServer wraps a Safe Browsing database with the plaintext API,
// consulting the given lists.
func NewServer(backend *sbserver.Server, lists []string) *Server {
	return &Server{backend: backend, lists: lists, now: time.Now}
}

// WithClock overrides the time source (tests).
func (s *Server) WithClock(now func() time.Time) *Server {
	s.now = now
	return s
}

// Lookup checks URLs in clear. Every URL — malicious or not — lands in
// the provider's log. Returns one verdict per input ("malware" list name
// or "ok"), preserving order.
func (s *Server) Lookup(clientID string, rawURLs []string) ([]string, error) {
	if len(rawURLs) > maxBatch {
		return nil, fmt.Errorf("%w: %d > %d", ErrBatchTooLarge, len(rawURLs), maxBatch)
	}
	verdicts := make([]string, len(rawURLs))
	for i, raw := range rawURLs {
		canon, err := urlx.Canonicalize(raw)
		if err != nil {
			verdicts[i] = "invalid"
			continue
		}
		s.mu.Lock()
		s.log = append(s.log, URLLogEntry{Time: s.now(), ClientID: clientID, URL: canon.String()})
		s.mu.Unlock()

		verdicts[i] = "ok"
	scan:
		for _, d := range canon.Decompositions() {
			full := hashx.Sum(d)
			for _, list := range s.lists {
				digests, live, err := s.backend.DigestsOf(list, full.Prefix())
				if err != nil {
					return nil, err
				}
				if !live {
					continue
				}
				for _, known := range digests {
					if known == full {
						verdicts[i] = list
						break scan
					}
				}
			}
		}
	}
	return verdicts, nil
}

// URLLog returns a copy of the provider's plaintext browsing log.
func (s *Server) URLLog() []URLLogEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]URLLogEntry, len(s.log))
	copy(out, s.log)
	return out
}
