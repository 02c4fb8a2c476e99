package sbclient

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"sbprivacy/internal/wire"
)

// RetryPolicy configures RetryTransport's per-request retry loop.
// Delays follow truncated exponential backoff — BaseDelay doubling per
// attempt up to MaxDelay — with multiplicative jitter of ±Jitter around
// the computed delay. A server-supplied Retry-After (a 429 or 503 from
// an overloaded provider) takes precedence over the computed schedule:
// the server knows its own refill rate better than the client does.
type RetryPolicy struct {
	// MaxRetries is the number of re-attempts after the first try; a
	// request fails for good after MaxRetries+1 attempts. Zero means
	// DefaultRetryPolicy.MaxRetries; negative disables retries.
	MaxRetries int
	// BaseDelay is the pre-jitter delay before the first retry. Zero
	// means DefaultRetryPolicy.BaseDelay.
	BaseDelay time.Duration
	// MaxDelay caps the pre-jitter exponential delay. Zero means
	// DefaultRetryPolicy.MaxDelay.
	MaxDelay time.Duration
	// Jitter is the fraction of the computed delay randomized around it:
	// the slept delay is uniform in [d·(1−Jitter), d·(1+Jitter)].
	// Zero means DefaultRetryPolicy.Jitter; negative disables jitter.
	Jitter float64
}

// DefaultRetryPolicy is the schedule used for zero-valued policy fields:
// four attempts total, 100ms → 200ms → 400ms pre-jitter, ±20% jitter,
// capped at 5s.
var DefaultRetryPolicy = RetryPolicy{
	MaxRetries: 3,
	BaseDelay:  100 * time.Millisecond,
	MaxDelay:   5 * time.Second,
	Jitter:     0.2,
}

// withDefaults fills zero-valued fields from DefaultRetryPolicy.
func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy
	if p.MaxRetries > 0 {
		d.MaxRetries = p.MaxRetries
	} else if p.MaxRetries < 0 {
		d.MaxRetries = 0
	}
	if p.BaseDelay > 0 {
		d.BaseDelay = p.BaseDelay
	}
	if p.MaxDelay > 0 {
		d.MaxDelay = p.MaxDelay
	}
	if p.Jitter > 0 {
		d.Jitter = p.Jitter
	} else if p.Jitter < 0 {
		d.Jitter = 0
	}
	return d
}

// RetryStats aggregates what a RetryTransport observed across every
// request it carried, read with RetryTransport.Stats. All counters are
// monotonic; the transport is safe for concurrent use, so counters may
// advance between field reads of a single Stats call.
type RetryStats struct {
	// Attempts counts wire calls issued, including retries.
	Attempts uint64
	// Retries counts re-attempts (Attempts minus first tries).
	Retries uint64
	// RateLimited counts 429 responses observed.
	RateLimited uint64
	// ServerErrors counts 5xx responses observed.
	ServerErrors uint64
	// TransportErrors counts network-level failures observed (dial,
	// reset, timeout — anything that never produced an HTTP status).
	TransportErrors uint64
	// Exhausted counts requests that still failed after the last
	// permitted attempt (the error RetryTransport returned to its
	// caller, net of non-retryable failures).
	Exhausted uint64
}

// RetryOption configures a RetryTransport.
type RetryOption func(*RetryTransport)

// WithRetrySleep replaces the between-attempt sleep, which by default
// waits on a real timer or ctx cancellation. Tests substitute a fake
// clock here so backoff schedules are asserted without wall sleeps.
func WithRetrySleep(sleep func(ctx context.Context, d time.Duration) error) RetryOption {
	return func(t *RetryTransport) { t.sleep = sleep }
}

// WithRetryJitterSource replaces the jitter source, a function returning
// uniform values in [0,1). The default draws from a locally seeded
// math/rand generator. Tests pin it to a constant to make the slept
// schedule exact.
func WithRetryJitterSource(f func() float64) RetryOption {
	return func(t *RetryTransport) { t.jitter = f }
}

// RetryTransport wraps a Transport with per-request retries. Overload
// signals — 429 and 5xx StatusErrors, and transport-level network
// failures — are retried on the policy's backoff schedule; everything
// else (4xx, decode failures, context cancellation) surfaces
// immediately. Safe for concurrent use by any number of goroutines; a
// fleet of workers can share one RetryTransport so Stats aggregates
// fleet-wide.
type RetryTransport struct {
	inner  Transport
	policy RetryPolicy
	sleep  func(ctx context.Context, d time.Duration) error
	jitter func() float64

	attempts        atomic.Uint64
	retries         atomic.Uint64
	rateLimited     atomic.Uint64
	serverErrors    atomic.Uint64
	transportErrors atomic.Uint64
	exhausted       atomic.Uint64
}

var _ Transport = (*RetryTransport)(nil)

// NewRetryTransport wraps inner with the given retry policy.
// Zero-valued policy fields take DefaultRetryPolicy values.
func NewRetryTransport(inner Transport, policy RetryPolicy, opts ...RetryOption) *RetryTransport {
	t := &RetryTransport{
		inner:  inner,
		policy: policy.withDefaults(),
		sleep:  sleepCtx,
		jitter: newJitterSource(),
	}
	for _, o := range opts {
		o(t)
	}
	return t
}

// sleepCtx waits for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// newJitterSource returns a mutex-guarded uniform [0,1) source with a
// per-transport seed (the global math/rand source would contend across
// every worker of a fleet sharing the transport).
func newJitterSource() func() float64 {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(rand.Int63())) //nolint:gosec // jitter, not crypto
	return func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return rng.Float64()
	}
}

// Stats returns a snapshot of the transport's cumulative counters.
func (t *RetryTransport) Stats() RetryStats {
	return RetryStats{
		Attempts:        t.attempts.Load(),
		Retries:         t.retries.Load(),
		RateLimited:     t.rateLimited.Load(),
		ServerErrors:    t.serverErrors.Load(),
		TransportErrors: t.transportErrors.Load(),
		Exhausted:       t.exhausted.Load(),
	}
}

// Download implements Transport with retries.
func (t *RetryTransport) Download(ctx context.Context, req *wire.DownloadRequest) (*wire.DownloadResponse, error) {
	var resp *wire.DownloadResponse
	err := t.do(ctx, func() error {
		var err error
		resp, err = t.inner.Download(ctx, req)
		return err
	})
	return resp, err
}

// FullHashes implements Transport with retries.
func (t *RetryTransport) FullHashes(ctx context.Context, req *wire.FullHashRequest) (*wire.FullHashResponse, error) {
	var resp *wire.FullHashResponse
	err := t.do(ctx, func() error {
		var err error
		resp, err = t.inner.FullHashes(ctx, req)
		return err
	})
	return resp, err
}

// FullHashesBatch retries the whole batch call. The server validates a
// batch before serving any of it, so a failed attempt is all-or-nothing
// and re-sending it cannot double-serve a sub-request.
func (t *RetryTransport) FullHashesBatch(ctx context.Context, reqs []*wire.FullHashRequest) ([]*wire.FullHashResponse, error) {
	inner, ok := t.inner.(interface {
		FullHashesBatch(context.Context, []*wire.FullHashRequest) ([]*wire.FullHashResponse, error)
	})
	if !ok {
		return nil, errors.New("sbclient: inner transport does not support batching")
	}
	var resps []*wire.FullHashResponse
	err := t.do(ctx, func() error {
		var err error
		resps, err = inner.FullHashesBatch(ctx, reqs)
		return err
	})
	return resps, err
}

// do runs call with up to policy.MaxRetries re-attempts.
func (t *RetryTransport) do(ctx context.Context, call func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		t.attempts.Add(1)
		if attempt > 0 {
			t.retries.Add(1)
		}
		err = call()
		if err == nil {
			return nil
		}
		t.classify(err)
		if !retryable(err) {
			return err
		}
		if attempt >= t.policy.MaxRetries {
			t.exhausted.Add(1)
			return err
		}
		if serr := t.sleep(ctx, t.delay(attempt, err)); serr != nil {
			t.exhausted.Add(1)
			return serr
		}
	}
}

// classify buckets an attempt's failure into the stats counters.
func (t *RetryTransport) classify(err error) {
	var se *StatusError
	if errors.As(err, &se) {
		switch {
		case se.StatusCode == 429:
			t.rateLimited.Add(1)
		case se.StatusCode >= 500:
			t.serverErrors.Add(1)
		}
		return
	}
	if isTransportError(err) {
		t.transportErrors.Add(1)
	}
}

// retryable reports whether an attempt's failure is worth re-trying:
// explicit overload answers (429, 5xx) and network-level failures. A
// non-overload 4xx, a wire decode failure, or a canceled context will
// fail identically on every retry and surfaces immediately.
func retryable(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.StatusCode == 429 || se.StatusCode >= 500
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return isTransportError(err)
}

// isTransportError reports whether err is a network-level failure —
// anything from the HTTP client or the sockets underneath it.
func isTransportError(err error) bool {
	var ue *url.Error
	if errors.As(err, &ue) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// delay computes the post-attempt backoff. A server-supplied
// Retry-After takes precedence, verbatim — no jitter, no cap — because
// it is the server's own statement of when capacity returns; otherwise
// truncated exponential backoff with multiplicative jitter.
func (t *RetryTransport) delay(attempt int, err error) time.Duration {
	var se *StatusError
	if errors.As(err, &se) && se.RetryAfter > 0 {
		return se.RetryAfter
	}
	d := t.policy.BaseDelay << uint(attempt)
	if d <= 0 || d > t.policy.MaxDelay { // <=0 catches shift overflow
		d = t.policy.MaxDelay
	}
	if j := t.policy.Jitter; j > 0 {
		// Uniform in [d·(1−j), d·(1+j)].
		d = time.Duration(float64(d) * (1 - j + 2*j*t.jitter()))
	}
	return d
}
