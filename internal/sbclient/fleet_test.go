package sbclient

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/wire"
)

// fleetWorkers is the number of goroutines sharing one RetryTransport.
const fleetWorkers = 8

// fleetRun is what one fleet run saw on both sides of the socket.
type fleetRun struct {
	ok, failed, entries uint64
	client              RetryStats
	limiter             sbserver.LimitStats
	probes              sbserver.ProbeStats
}

// runFleet serves a small blacklist through sbserver.Handler behind a
// Limiter built from limits, on a real loopback listener, and has
// fleetWorkers goroutines send perWorker full-hash requests each
// through one shared RetryTransport over HTTPTransport. Every request
// carries one planted prefix and one random one.
func runFleet(t *testing.T, limits sbserver.LimitConfig, policy RetryPolicy, perWorker int) fleetRun {
	t.Helper()
	srv := sbserver.New()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server Close: %v", err)
		}
	})
	if err := srv.CreateList(testList, "malware"); err != nil {
		t.Fatalf("CreateList: %v", err)
	}
	planted := make([]hashx.Prefix, 64)
	exprs := make([]string, len(planted))
	for i := range exprs {
		exprs[i] = fmt.Sprintf("evil%02d.example/", i)
		planted[i] = hashx.Sum(exprs[i]).Prefix()
	}
	if err := srv.AddExpressions(testList, exprs); err != nil {
		t.Fatalf("AddExpressions: %v", err)
	}

	lim := sbserver.NewLimiter(limits)
	ts := httptest.NewServer(sbserver.Handler(srv, sbserver.WithLimiter(lim)))
	defer ts.Close()
	pooled := &http.Transport{MaxIdleConnsPerHost: 2 * fleetWorkers}
	defer pooled.CloseIdleConnections()
	retry := NewRetryTransport(HTTPTransport{
		BaseURL: ts.URL,
		Client:  &http.Client{Transport: pooled, Timeout: 10 * time.Second},
	}, policy)

	var (
		mu  sync.Mutex
		run fleetRun
		wg  sync.WaitGroup
	)
	for w := 0; w < fleetWorkers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id) + 1))
			var ok, failed, entries uint64
			for n := 0; n < perWorker; n++ {
				req := &wire.FullHashRequest{
					ClientID: fmt.Sprintf("fleet-%d-%d", id, n%4),
					Prefixes: []hashx.Prefix{planted[rng.Intn(len(planted))], hashx.Prefix(rng.Uint32())},
				}
				resp, err := retry.FullHashes(context.Background(), req)
				if err != nil {
					failed++
					continue
				}
				ok++
				entries += uint64(len(resp.Entries))
			}
			mu.Lock()
			run.ok += ok
			run.failed += failed
			run.entries += entries
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	srv.Flush()
	run.client = retry.Stats()
	run.limiter = lim.Stats()
	run.probes = srv.ProbeStats()
	return run
}

// TestFleetOverSockets: with no limits, a fleet sharing one
// RetryTransport over real sockets completes every request, the
// limiter admitted exactly the attempts the client made, the server
// recorded one probe per served request, and planted prefixes are
// answered with their full hashes.
func TestFleetOverSockets(t *testing.T) {
	t.Parallel()
	const perWorker = 25
	run := runFleet(t, sbserver.LimitConfig{}, RetryPolicy{}, perWorker)
	if want := uint64(fleetWorkers * perWorker); run.ok != want || run.failed != 0 {
		t.Errorf("ok/failed = %d/%d, want %d/0", run.ok, run.failed, want)
	}
	if run.limiter.Allowed != run.client.Attempts {
		t.Errorf("server allowed %d != client attempts %d (no limits were configured)",
			run.limiter.Allowed, run.client.Attempts)
	}
	if run.probes.Received != run.ok {
		t.Errorf("probes received = %d, want one per served request (%d)", run.probes.Received, run.ok)
	}
	if run.entries < run.ok {
		t.Errorf("%d entries for %d requests: every request carries a planted prefix", run.entries, run.ok)
	}
}

// TestFleetAbsorbsRateLimit is the graceful-degradation contract over
// real sockets: 8 workers against a 300/s bucket with burst 20 are
// rejected with 429 + Retry-After, back off, and still complete every
// request — zero failures, zero transport errors — while the server's
// rejection count equals the 429s the client saw.
func TestFleetAbsorbsRateLimit(t *testing.T) {
	t.Parallel()
	const perWorker = 20
	run := runFleet(t, sbserver.LimitConfig{RatePerSec: 300, Burst: 20}, RetryPolicy{
		MaxRetries: 25,
		BaseDelay:  5 * time.Millisecond,
		MaxDelay:   100 * time.Millisecond,
	}, perWorker)
	if want := uint64(fleetWorkers * perWorker); run.ok != want || run.failed != 0 {
		t.Errorf("ok/failed = %d/%d, want all %d to complete (overload must be absorbed by retry)",
			run.ok, run.failed, want)
	}
	if run.client.TransportErrors != 0 {
		t.Errorf("transport errors = %d, want 0", run.client.TransportErrors)
	}
	if run.limiter.RateLimited == 0 {
		t.Error("server rejected nothing: the limit did not induce overload")
	}
	if run.client.RateLimited == 0 || run.client.Retries == 0 {
		t.Errorf("client saw %d 429s / %d retries, want both > 0", run.client.RateLimited, run.client.Retries)
	}
	if run.limiter.RateLimited != run.client.RateLimited {
		t.Errorf("server counted %d rejections, client observed %d 429s",
			run.limiter.RateLimited, run.client.RateLimited)
	}
	if run.probes.Received != run.ok {
		t.Errorf("probes received = %d, want one per served request (%d)", run.probes.Received, run.ok)
	}
}
