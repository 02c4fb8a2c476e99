// Package sbclient implements the Safe Browsing client of the paper's
// Figure 3: local prefix database, incremental updates, URL lookup via
// canonicalization and decomposition, and the full-hash round trip with
// caching.
//
// Every lookup verdict records exactly which prefixes were revealed to
// the provider — the observable quantity of the privacy analysis. A
// lookup that misses the local database reveals nothing; a hit reveals
// the 32-bit prefixes of the matching decompositions, together with the
// client's Safe Browsing cookie.
package sbclient

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/prefixdb"
	"sbprivacy/internal/urlx"
	"sbprivacy/internal/wire"
)

// Transport abstracts the path to the provider: in-process for tests and
// experiments, HTTP for a deployed service.
type Transport interface {
	Download(ctx context.Context, req *wire.DownloadRequest) (*wire.DownloadResponse, error)
	FullHashes(ctx context.Context, req *wire.FullHashRequest) (*wire.FullHashResponse, error)
}

// ErrUpdateTooSoon reports that the server-imposed poll pacing forbids an
// update right now.
var ErrUpdateTooSoon = errors.New("sbclient: update requested before server-imposed wait elapsed")

// StoreFactory builds the local prefix store for one list. The default is
// the delta-coded table, Google's production choice.
type StoreFactory func() prefixdb.Updatable

type listState struct {
	store     prefixdb.Updatable
	lastChunk uint32
}

// Backoff pacing after failed updates, per the protocol: the first error
// waits one minute; each consecutive error doubles the wait, capped at
// eight hours.
const (
	backoffInitial = time.Minute
	backoffMax     = 8 * time.Hour
)

type cacheEntry struct {
	entries   []wire.FullHashEntry // empty slice = confirmed false positive
	expiresAt time.Time
}

// Stats counts the client's observable traffic, used by the mitigation
// ablations: privacy exposure is proportional to full-hash requests and
// prefixes sent. With a QueryPolicy installed the wire traffic splits
// into real and dummy portions; without one every sent prefix is real.
type Stats struct {
	Lookups          int
	LocalHits        int
	FullHashRequests int
	// PrefixesSent is the total number of prefixes put on the wire,
	// reals and dummies together: RealPrefixesSent + DummyPrefixesSent.
	PrefixesSent int
	// RealPrefixesSent counts wire prefixes the lookup genuinely needed.
	RealPrefixesSent int
	// DummyPrefixesSent counts policy padding the provider also saw.
	DummyPrefixesSent int
	// PrefixesWithheld counts real prefixes a policy refused to send
	// (e.g. consent declined); the lookup left them unresolved.
	PrefixesWithheld int
	// WireBytes is the total encoded size of every full-hash request
	// sent — the bandwidth cost mitigation overhead is measured in.
	WireBytes int
	CacheHits int
}

// Client is a Safe Browsing client. Safe for concurrent use.
type Client struct {
	mu           sync.Mutex
	transport    Transport
	cookie       string
	lists        map[string]*listState
	listOrder    []string
	cache        map[hashx.Prefix]cacheEntry
	now          func() time.Time
	nextUpdateAt time.Time
	// consecutiveUpdateFailures drives the exponential backoff.
	consecutiveUpdateFailures int
	stats                     Stats
	newStore                  StoreFactory
	// policy is the privacy middleware applied to full-hash traffic;
	// nil sends every real prefix in one request.
	policy QueryPolicy
}

// Option configures a Client.
type Option func(*Client)

// WithCookie pins the Safe Browsing cookie (Section 2.2.3). An empty
// cookie simulates a cookie-less client.
func WithCookie(cookie string) Option {
	return func(c *Client) { c.cookie = cookie }
}

// WithClock overrides the time source (tests).
func WithClock(now func() time.Time) Option {
	return func(c *Client) { c.now = now }
}

// WithStoreFactory selects the local data structure (Section 2.2.2).
func WithStoreFactory(f StoreFactory) Option {
	return func(c *Client) { c.newStore = f }
}

// New creates a client syncing the given lists over the transport.
func New(transport Transport, lists []string, opts ...Option) *Client {
	c := &Client{
		transport: transport,
		cookie:    randomCookie(),
		lists:     make(map[string]*listState, len(lists)),
		cache:     make(map[hashx.Prefix]cacheEntry),
		now:       time.Now,
		newStore:  func() prefixdb.Updatable { return prefixdb.NewDeltaStore(nil) },
	}
	for _, o := range opts {
		o(c)
	}
	for _, name := range lists {
		if _, dup := c.lists[name]; dup {
			continue
		}
		c.lists[name] = &listState{store: c.newStore()}
		c.listOrder = append(c.listOrder, name)
	}
	return c
}

func randomCookie() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is unrecoverable; fall back to a fixed
		// cookie rather than aborting the client.
		return "cookie-fallback"
	}
	return hex.EncodeToString(b[:])
}

// Cookie returns the client's Safe Browsing cookie.
func (c *Client) Cookie() string { return c.cookie }

// Stats returns a snapshot of the traffic counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Update fetches and applies incremental chunks for all lists. It honors
// the server's minimum wait: a premature call returns ErrUpdateTooSoon
// unless force is set. A failed update starts the protocol's exponential
// backoff (one minute, doubling per consecutive failure, capped at eight
// hours), which force also overrides. A successful update discards the
// full-hash cache ("storing the full digests prevents the network from
// slowing down... until an update discards them", Section 2.2.1).
// A chunk at or below its list's last applied chunk is skipped, so
// overlapping Updates cannot undo each other.
func (c *Client) Update(ctx context.Context, force bool) error {
	// Clock reads happen before taking the lock: c.now is a caller
	// callback (lockscope), and it is immutable after New.
	now := c.now()
	c.mu.Lock()
	if !force && now.Before(c.nextUpdateAt) {
		wait := c.nextUpdateAt.Sub(now)
		c.mu.Unlock()
		return fmt.Errorf("%w: %v remaining", ErrUpdateTooSoon, wait)
	}
	req := &wire.DownloadRequest{ClientID: c.cookie}
	for _, name := range c.listOrder {
		req.States = append(req.States, wire.ListState{
			List:      name,
			LastChunk: c.lists[name].lastChunk,
		})
	}
	c.mu.Unlock()

	resp, err := c.transport.Download(ctx, req)
	now = c.now()
	if err != nil {
		c.mu.Lock()
		c.consecutiveUpdateFailures++
		backoff := backoffInitial << uint(c.consecutiveUpdateFailures-1)
		if backoff > backoffMax || backoff <= 0 {
			backoff = backoffMax
		}
		c.nextUpdateAt = now.Add(backoff)
		c.mu.Unlock()
		return fmt.Errorf("sbclient: download: %w", err)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.consecutiveUpdateFailures = 0
	for _, chunk := range resp.Chunks {
		ls, ok := c.lists[chunk.List]
		if !ok {
			continue // server pushed a list we don't sync
		}
		// An overlapping Update may have applied this chunk, and newer
		// ones, since this response was requested: re-applying it
		// would undo them.
		if chunk.Num <= ls.lastChunk {
			continue
		}
		switch chunk.Type {
		case wire.ChunkAdd:
			ls.store.Apply(chunk.Prefixes, nil)
		case wire.ChunkSub:
			ls.store.Apply(nil, chunk.Prefixes)
		}
		ls.lastChunk = chunk.Num
	}
	c.cache = make(map[hashx.Prefix]cacheEntry)
	c.nextUpdateAt = now.Add(time.Duration(resp.MinWaitSeconds) * time.Second)
	return nil
}

// LocalHit is one decomposition whose prefix matched the local database.
type LocalHit struct {
	Expression string
	Prefix     hashx.Prefix
	List       string
}

// Match is a confirmed blacklist match: the full digest of a
// decomposition equals a digest returned by the provider.
type Match struct {
	List       string
	Expression string
	Prefix     hashx.Prefix
	Digest     hashx.Digest
}

// Verdict is the outcome of one URL lookup, including everything the
// lookup revealed to the provider.
type Verdict struct {
	URL       string
	Canonical string
	// Safe is true when no decomposition is confirmed blacklisted.
	Safe bool
	// Matches lists confirmed blacklist entries (empty when Safe).
	Matches []Match
	// LocalHits lists decompositions whose prefixes hit the local DB,
	// confirmed or not.
	LocalHits []LocalHit
	// SentPrefixes are the prefixes revealed to the provider by this
	// lookup, across every policy stage, dummies included (empty when
	// the local database missed or the cache answered).
	SentPrefixes []hashx.Prefix
	// WithheldPrefixes are real prefixes the query policy refused to
	// send while the verdict stayed Safe: their decompositions are
	// unconfirmed, not cleared. Empty when a match was confirmed anyway
	// (unresolved prefixes were simply unneeded then).
	WithheldPrefixes []hashx.Prefix
	// FromCache is true when all hits were answered by the full-hash
	// cache without contacting the provider.
	FromCache bool
}

// CheckURL runs the full client behaviour of Figure 3 for one URL.
func (c *Client) CheckURL(ctx context.Context, rawURL string) (*Verdict, error) {
	canon, err := urlx.Canonicalize(rawURL)
	if err != nil {
		return nil, err
	}
	decomps := canon.Decompositions()

	v := &Verdict{URL: rawURL, Canonical: canon.String(), Safe: true}

	// Clock callback runs before taking the lock (lockscope); c.now is
	// immutable after New.
	now := c.now()
	c.mu.Lock()
	c.stats.Lookups++
	type pending struct {
		expr   string
		prefix hashx.Prefix
	}
	var hits []pending
	for _, d := range decomps {
		p := hashx.SumPrefix(d)
		for _, name := range c.listOrder {
			if c.lists[name].store.Contains(p) {
				hits = append(hits, pending{expr: d, prefix: p})
				v.LocalHits = append(v.LocalHits, LocalHit{Expression: d, Prefix: p, List: name})
				break
			}
		}
	}
	if len(hits) == 0 {
		c.mu.Unlock()
		return v, nil // database miss: the URL is safe, nothing leaked
	}
	c.stats.LocalHits++

	// Serve what we can from the full-hash cache.
	entriesByPrefix := make(map[hashx.Prefix][]wire.FullHashEntry, len(hits))
	var toQuery []hashx.Prefix
	exprOf := make(map[hashx.Prefix]string, len(hits))
	seen := make(map[hashx.Prefix]struct{}, len(hits))
	cacheAnswered := true
	cachedMalicious := false
	for _, h := range hits {
		if _, dup := seen[h.prefix]; dup {
			continue
		}
		seen[h.prefix] = struct{}{}
		if entry, ok := c.cache[h.prefix]; ok && now.Before(entry.expiresAt) {
			entriesByPrefix[h.prefix] = entry.entries
			c.stats.CacheHits++
			if c.policy != nil && !cachedMalicious {
				// Tell the policy when the cache already settles the
				// verdict, so withholding strategies can stop instead
				// of prompting for outcome-irrelevant prefixes.
				full := hashx.Sum(h.expr)
				for _, e := range entry.entries {
					if e.Digest == full {
						cachedMalicious = true
						break
					}
				}
			}
			continue
		}
		cacheAnswered = false
		toQuery = append(toQuery, h.prefix)
		exprOf[h.prefix] = h.expr
	}
	cookie := c.cookie
	policy := c.policy
	c.mu.Unlock()

	var unresolved []hashx.Prefix
	if len(toQuery) > 0 {
		// The policy seam: the plan decides what reaches the wire —
		// everything at once (nil policy), padded, staged, or withheld.
		var plan QueryPlan
		if policy == nil {
			plan = &singleStagePlan{stage: Stage{Send: toQuery, Real: toQuery}}
		} else {
			plan = policy.Plan(buildQuery(canon.String(), exprOf, toQuery, cachedMalicious))
		}
		needed := make(map[hashx.Prefix]struct{}, len(toQuery))
		for _, p := range toQuery {
			needed[p] = struct{}{}
		}
		resolved := make(map[hashx.Prefix]struct{}, len(toQuery))
		for {
			stage, ok := plan.Next()
			if !ok {
				break
			}
			if len(stage.Send) == 0 {
				continue
			}
			req := &wire.FullHashRequest{ClientID: cookie, Prefixes: stage.Send}
			resp, err := c.transport.FullHashes(ctx, req)
			if err != nil {
				return nil, fmt.Errorf("sbclient: fullhashes: %w", err)
			}
			v.SentPrefixes = append(v.SentPrefixes, stage.Send...)

			// Only real prefixes of this lookup are cached and counted
			// as real; anything else the policy sent is dummy traffic.
			real := make([]hashx.Prefix, 0, len(stage.Real))
			for _, p := range stage.Real {
				if _, ok := needed[p]; ok {
					real = append(real, p)
					resolved[p] = struct{}{}
				}
			}
			// Encode sizing and the TTL clock read stay outside the
			// lock: both call out of the package (lockscope).
			reqBytes := requestWireBytes(req)
			ttl := time.Duration(resp.CacheSeconds) * time.Second
			expiresAt := c.now().Add(ttl)
			fresh := make(map[hashx.Prefix][]wire.FullHashEntry, len(real))
			for _, p := range real {
				fresh[p] = []wire.FullHashEntry{} // negative entries cache too
			}
			for _, e := range resp.Entries {
				p := e.Digest.Prefix()
				if _, ok := fresh[p]; ok {
					fresh[p] = append(fresh[p], e)
				}
			}
			c.mu.Lock()
			c.stats.FullHashRequests++
			c.stats.PrefixesSent += len(stage.Send)
			c.stats.RealPrefixesSent += len(real)
			c.stats.DummyPrefixesSent += len(stage.Send) - len(real)
			c.stats.WireBytes += reqBytes
			for p, es := range fresh {
				c.cache[p] = cacheEntry{entries: es, expiresAt: expiresAt}
				entriesByPrefix[p] = es
			}
			c.mu.Unlock()
			plan.Observe(stage, resp)
		}
		unresolved = make([]hashx.Prefix, 0, len(toQuery))
		for _, p := range toQuery {
			if _, ok := resolved[p]; !ok {
				unresolved = append(unresolved, p)
			}
		}
	}
	v.FromCache = cacheAnswered

	for _, h := range hits {
		full := hashx.Sum(h.expr)
		for _, e := range entriesByPrefix[h.prefix] {
			if e.Digest == full {
				v.Safe = false
				v.Matches = append(v.Matches, Match{
					List:       e.List,
					Expression: h.expr,
					Prefix:     h.prefix,
					Digest:     e.Digest,
				})
			}
		}
	}
	// Withheld accounting: a prefix the policy left unresolved only
	// counts as withheld when the verdict stayed Safe — an unresolved
	// prefix behind a lookup already confirmed malicious was simply
	// unneeded (e.g. the one-prefix strategy stopping after a malicious
	// root), not a utility loss.
	if v.Safe && len(unresolved) > 0 {
		v.WithheldPrefixes = unresolved
		c.mu.Lock()
		c.stats.PrefixesWithheld += len(unresolved)
		c.mu.Unlock()
	}
	return v, nil
}

// LocalPrefixCount returns the number of prefixes stored for a list.
func (c *Client) LocalPrefixCount(list string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	ls, ok := c.lists[list]
	if !ok {
		return 0
	}
	return ls.store.Len()
}

// LocalSizeBytes returns the total footprint of the local stores.
func (c *Client) LocalSizeBytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, name := range c.listOrder {
		total += c.lists[name].store.SizeBytes()
	}
	return total
}
