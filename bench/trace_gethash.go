package main

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sbprivacy/internal/sbclient"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/wire"
)

// spanHeader carries "req:span" from the client's round-trip span to
// the server-side spans it causes.
const spanHeader = "X-Bench-Span"

// Span names of the HTTP path, outermost first.
const (
	spTransport = "sbclient.transport" // Transport.FullHashes / FullHashesBatch: encode, round trip, decode
	spRoundTrip = "http.roundtrip"     // http.RoundTripper: until the response headers are in
	spLimiter   = "sbserver.limiter"   // Limiter.Wrap around the handler
	spHandler   = "sbserver.handler"   // sbserver.Handler: decode, FullHashes, probe enqueue, encode
)

// spanTransport records one root span per client call and hands its
// reference down through the context.
type spanTransport struct {
	inner fullHasher
	tr    *tracer
}

func (t spanTransport) Download(ctx context.Context, req *wire.DownloadRequest) (*wire.DownloadResponse, error) {
	return t.inner.Download(ctx, req)
}

func (t spanTransport) FullHashes(ctx context.Context, req *wire.FullHashRequest) (*wire.FullHashResponse, error) {
	sp := t.tr.begin(spTransport, 0, t.tr.newReq())
	defer sp.end()
	return t.inner.FullHashes(withSpanRef(ctx, spanRef{sp.req, sp.id}), req)
}

func (t spanTransport) FullHashesBatch(ctx context.Context, reqs []*wire.FullHashRequest) ([]*wire.FullHashResponse, error) {
	sp := t.tr.begin(spTransport, 0, t.tr.newReq())
	defer sp.end()
	return t.inner.FullHashesBatch(withSpanRef(ctx, spanRef{sp.req, sp.id}), reqs)
}

// spanRoundTripper records the HTTP round trip and forwards its span
// reference in a request header.
type spanRoundTripper struct {
	base http.RoundTripper
	tr   *tracer
}

func (rt spanRoundTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	ref, ok := spanRefFrom(r.Context())
	if !ok {
		return rt.base.RoundTrip(r)
	}
	sp := rt.tr.begin(spRoundTrip, ref.id, ref.req)
	defer sp.end()
	r2 := r.Clone(r.Context()) // a RoundTripper must not modify the caller's request
	r2.Header.Set(spanHeader, strconv.FormatInt(sp.req, 10)+":"+strconv.FormatInt(sp.id, 10))
	return rt.base.RoundTrip(r2)
}

// spanHandler records a server-side span around next. Its parent is the
// enclosing server span when there is one, else the client span named
// in the request header.
func spanHandler(tr *tracer, name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref, ok := spanRefFrom(r.Context())
		if !ok {
			if req, id, found := strings.Cut(r.Header.Get(spanHeader), ":"); found {
				ref.req, _ = strconv.ParseInt(req, 10, 64)
				ref.id, _ = strconv.ParseInt(id, 10, 64)
				ok = ref.id != 0
			}
		}
		if !ok {
			next.ServeHTTP(w, r) // untraced traffic: the set-up sync
			return
		}
		sp := tr.begin(name, ref.id, ref.req)
		defer sp.end()
		next.ServeHTTP(w, r.WithContext(withSpanRef(r.Context(), spanRef{sp.req, sp.id})))
	})
}

// lagSink measures, sink-side, how long a probe took from the moment
// the server stamped it to its delivery by the probe pipeline.
type lagSink struct {
	mu   sync.Mutex
	lags []float64 // microseconds
}

func (s *lagSink) Observe(p sbserver.Probe) {
	lag := float64(time.Since(p.Time)) / float64(time.Microsecond)
	s.mu.Lock()
	s.lags = append(s.lags, lag)
	s.mu.Unlock()
}

// tracedGethashSize is the shortened in-process copy of an HTTP
// workload that the traced run measures twice, untraced then traced.
func tracedGethashSize(quick bool) gethashSize {
	if quick {
		return quickSizes(false).http
	}
	return gethashSize{
		scale: 40, planted: 1024, cookies: 1024, ring: 1 << 14,
		warm: 300 * time.Millisecond, measure: 1500 * time.Millisecond, servers: 1,
	}
}

// tracedGethash reruns an HTTP workload in-process: once with tracing
// off for the baseline, once with a span recorder at every seam the
// code exposes — the sbclient transport, the http.RoundTripper, the
// limiter and the handler on the server, and a sink on the probe
// pipeline. It returns per-layer figures in out.diag and the downloaded
// prefix set for the isolated index replay.
func tracedGethash(e *env, batch bool) (*phaseOut, *gethashRun, error) {
	sz := tracedGethashSize(e.quick)
	name := wlGethashHTTP
	if batch {
		name = wlGethashBatch
	}
	base, err := runGethash(e, batch, sz)
	if err != nil {
		return nil, nil, err
	}

	tr := newTracer()
	lag := &lagSink{}
	r, err := setupGethash(e, batch, sz, inprocOpts{
		handler: func(s *sbserver.Server, lim *sbserver.Limiter) http.Handler {
			return spanHandler(tr, spLimiter, lim.Wrap(spanHandler(tr, spHandler, sbserver.Handler(s))))
		},
		extra: []sbserver.ProbeSink{lag},
	})
	if err != nil {
		return nil, nil, err
	}
	defer r.close()
	traced := &http.Client{Transport: spanRoundTripper{base: r.client.Transport, tr: tr}}
	retry := sbclient.NewRetryTransport(
		sbclient.HTTPTransport{BaseURL: r.prov.baseURL(), Client: traced},
		sbclient.RetryPolicy{},
	)
	lo := r.load(e, batch, sz.warm+sz.measure, spanTransport{inner: retry, tr: tr})
	if err := e.ctx.Err(); err != nil {
		return nil, nil, err
	}
	r.client.CloseIdleConnections()
	srv := r.prov.(*inprocServer)
	st, err := srv.stop()
	if err != nil {
		return nil, nil, err
	}

	out := newPhaseOut()
	out.attempted, out.failed = base.attempted+lo.attempted, base.failed+lo.failed
	out.problems = base.problems
	if lo.failed != 0 {
		out.problemf("traced %s: %d of %d operations failed", name, lo.failed, lo.attempted)
	}
	spans := tr.all()
	if err := writeTrace(e, name, spans); err != nil {
		return nil, nil, err
	}
	d := out.diag

	// Tracing overhead: traced over untraced operations per second.
	n := windowsFor(len(lo.samples))
	ws := windowStats(lo.samples, sz.warm, sz.measure/time.Duration(n), n)
	tracedPerSec := goodQuartile(column(ws, func(w windowStat) float64 { return w.perSec }), true)
	basePerSec := base.m["gethash_rps"]
	if batch {
		basePerSec = base.m["batch_lookups_per_s"] / batchFrame
	}
	if basePerSec > 0 {
		d["overhead_ratio"] = tracedPerSec / basePerSec
	}

	if batch {
		sort.Float64s(lag.lags)
		if n := len(lag.lags); n > 0 {
			d["probelog.deliver_lag_p50_us"] = lag.lags[(n-1)/2]
			d["probelog.deliver_lag_p99_us"], _ = bestPercentile(lag.lags, 0.99)
		}
		if st.received > 0 {
			d["probelog.dropped_ratio"] = float64(st.dropped) / float64(st.received)
		}
		d["sbserver.drain_ms"] = float64(st.drain) / float64(time.Millisecond)
		return out, r, nil
	}

	// Reconciliation of the single-request path: the median self time of
	// every layer, summed, against the untraced end-to-end median.
	by := statsByName(spans)
	for _, n := range []string{spTransport, spRoundTrip, spLimiter, spHandler} {
		if by[n].count == 0 {
			return nil, nil, fmt.Errorf("traced %s recorded no %s span", name, n)
		}
	}
	d["sbserver.handler_ns"] = by[spHandler].medianDur
	// The round trip's self time is what is left of it once the
	// server-side spans are taken out: connection handling, header
	// parsing, the loopback hop, scheduling on both sides.
	d["http.hop_ns"] = by[spRoundTrip].medianSelf
	sum := by[spTransport].medianSelf + by[spRoundTrip].medianSelf + by[spLimiter].medianSelf + by[spHandler].medianSelf
	d["layers.sum_us"] = sum / 1000
	d["layers.e2e_p50_us"] = base.m["gethash_p50_us"]
	if p50 := base.m["gethash_p50_us"]; p50 > 0 {
		d["layers.unexplained_ratio"] = (p50 - sum/1000) / p50
	}
	d["http.rtt_p999_us"] = base.diag["rtt_p999_us"]
	d["http.rtt_max_us"] = base.diag["rtt_max_us"]
	rs := retry.Stats()
	if first := rs.Attempts - rs.Retries; first > 0 {
		d["sbclient.retry_ratio"] = float64(rs.Retries) / float64(first)
	}
	ls := srv.limiter.Stats()
	if total := ls.Allowed + ls.RateLimited + ls.Overloaded; total > 0 {
		d["limiter.rejected_ratio"] = float64(ls.RateLimited+ls.Overloaded) / float64(total)
	}
	return out, r, nil
}
