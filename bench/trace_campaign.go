package main

import (
	"context"
	"errors"
	"runtime"
	"time"

	"sbprivacy/internal/core"
	"sbprivacy/internal/hashx"
	"sbprivacy/internal/prefixdb"
	"sbprivacy/internal/probestore"
	"sbprivacy/internal/sbclient"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/wire"
	"sbprivacy/internal/workload"
)

// Span names of the campaign path.
const (
	spUpdate   = "sbclient.update"
	spCheckURL = "sbclient.checkurl"
	spContains = "prefixdb.contains"
	spApply    = "prefixdb.apply"
	spLocal    = "sbclient.localtransport" // LocalTransport.FullHashes -> Server.FullHashes
	spFlush    = "sbserver.flush"
	spObserve  = "probestore.observe"
)

// spanStore is the prefixdb.Updatable the traced campaign injects with
// WithStoreFactory: every Contains and Apply becomes a child span of
// the client call in progress. The campaign loop is single-threaded, so
// the current parent is a plain field on the shared visit state.
type spanStore struct {
	prefixdb.Updatable
	v *visitState
}

// visitState is what the traced visit loop shares with its wrappers.
type visitState struct {
	tr       *tracer
	cur      spanRef // the client call in progress
	contains int64
}

func (s spanStore) Contains(p hashx.Prefix) bool {
	s.v.contains++
	sp := s.v.tr.begin(spContains, s.v.cur.id, s.v.cur.req)
	ok := s.Updatable.Contains(p)
	sp.end()
	return ok
}

func (s spanStore) Apply(add, remove []hashx.Prefix) {
	sp := s.v.tr.begin(spApply, s.v.cur.id, s.v.cur.req)
	s.Updatable.Apply(add, remove)
	sp.end()
}

// spanLocal wraps the in-process transport of the campaign path.
type spanLocal struct {
	inner sbclient.Transport
	v     *visitState
}

func (t spanLocal) Download(ctx context.Context, req *wire.DownloadRequest) (*wire.DownloadResponse, error) {
	return t.inner.Download(ctx, req)
}

func (t spanLocal) FullHashes(ctx context.Context, req *wire.FullHashRequest) (*wire.FullHashResponse, error) {
	sp := t.v.tr.begin(spLocal, t.v.cur.id, t.v.cur.req)
	defer sp.end()
	return t.inner.FullHashes(ctx, req)
}

// spanSink wraps a ProbeSink: every Observe is recorded as a root span
// (the sink side of the probe pipeline does not know which request a
// probe came from).
type spanSink struct {
	inner sbserver.ProbeSink
	tr    *tracer
}

func (s spanSink) Observe(p sbserver.Probe) {
	sp := s.tr.begin(spObserve, 0, 0)
	s.inner.Observe(p)
	sp.end()
}

// tracedCampaignSize is the shortened campaign of the traced run.
func tracedCampaignSize(quick bool) campaignSize {
	if quick {
		return quickSizes(false).campaign
	}
	return campaignSize{clients: 200, days: 7}
}

// tracedCampaign reruns a shortened campaign twice: through
// Campaign.Run with tracing off, then through the benchmark's own visit
// loop — the same public client and server calls Run makes, with a span
// around each — which must reproduce Run's probe count exactly.
func tracedCampaign(e *env) (*phaseOut, *workload.Campaign, error) {
	out := newPhaseOut()
	d := out.diag
	sz := tracedCampaignSize(e.quick)

	t0 := time.Now()
	camp, err := workload.Generate(sz.config(e.seed))
	if err != nil {
		return nil, nil, err
	}
	d["workload.generate_ms"] = msSince(t0)
	t0 = time.Now()
	index := core.NewIndex(camp.IndexExpressions())
	d["core.index_build_ms"] = msSince(t0)

	// Baseline: Campaign.Run, tracing off.
	baseStore, baseLong, closeBase, err := campaignSinks(e, index)
	if err != nil {
		return nil, nil, err
	}
	t0 = time.Now()
	baseStats, err := camp.Run(e.ctx, baseStore, baseLong)
	if err != nil {
		return nil, nil, errors.Join(err, closeBase())
	}
	runS := time.Since(t0).Seconds()
	d["workload.run_s"] = runS
	if err := closeBase(); err != nil {
		return nil, nil, err
	}
	t0 = time.Now()
	baseLong.Report()
	d["core.longitudinal_report_s"] = time.Since(t0).Seconds()

	// Traced: the benchmark's own visit loop.
	tr := newTracer()
	v := &visitState{tr: tr}
	store, long, closeSinks, err := campaignSinks(e, index)
	if err != nil {
		return nil, nil, err
	}
	clock := workload.NewClock(camp.Config.Start)
	server := sbserver.New(sbserver.WithClock(clock.Now), sbserver.WithProbeLogLimit(1024))
	if err := server.CreateList(camp.Config.List, "campaign blacklist"); err != nil {
		return nil, nil, errors.Join(err, closeSinks())
	}
	if err := server.AddExpressions(camp.Config.List, camp.BlacklistExpressions()); err != nil {
		return nil, nil, errors.Join(err, closeSinks())
	}
	if orphans := camp.OrphanRootExpressions(); len(orphans) > 0 {
		prefixes := make([]hashx.Prefix, len(orphans))
		for i, ex := range orphans {
			prefixes[i] = hashx.SumPrefix(ex)
		}
		if err := server.AddOrphanPrefixes(camp.Config.List, prefixes); err != nil {
			return nil, nil, errors.Join(err, closeSinks())
		}
	}
	server.Subscribe(spanSink{inner: store, tr: tr})
	server.Subscribe(long)

	transport := spanLocal{inner: sbclient.LocalTransport{Server: server}, v: v}
	clients := make(map[string]*sbclient.Client)
	var order []*sbclient.Client
	var hitExprs int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 = time.Now()
	for _, ev := range camp.Events {
		if err := e.ctx.Err(); err != nil {
			return nil, nil, errors.Join(err, server.Close(), closeSinks())
		}
		clock.Set(ev.Time)
		req := tr.newReq()
		cl := clients[ev.Cookie]
		if cl == nil {
			cl = sbclient.New(transport, []string{camp.Config.List},
				sbclient.WithCookie(ev.Cookie), sbclient.WithClock(clock.Now),
				sbclient.WithStoreFactory(func() prefixdb.Updatable {
					return spanStore{Updatable: prefixdb.NewDeltaStore(nil), v: v}
				}))
			clients[ev.Cookie] = cl
			order = append(order, cl)
			sp := tr.begin(spUpdate, 0, req)
			v.cur = spanRef{req, sp.id}
			err := cl.Update(e.ctx, true)
			sp.end()
			if err != nil {
				return nil, nil, errors.Join(err, server.Close(), closeSinks())
			}
		}
		sp := tr.begin(spCheckURL, 0, req)
		v.cur = spanRef{req, sp.id}
		verdict, err := cl.CheckURL(e.ctx, ev.URL)
		sp.end()
		if err != nil {
			return nil, nil, errors.Join(err, server.Close(), closeSinks())
		}
		hitExprs += len(verdict.LocalHits)
		sp = tr.begin(spFlush, 0, req)
		server.Flush()
		sp.end()
	}
	tracedS := time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	if err := errors.Join(server.Close(), closeSinks()); err != nil {
		return nil, nil, err
	}
	got := server.ProbeStats().Received
	out.attempted = int64(2 * len(camp.Events))
	if got != baseStats.Probes {
		out.problemf("traced visit loop recorded %d probes, Campaign.Run recorded %d", got, baseStats.Probes)
	}
	if st := store.Stats(); st.Persisted != got {
		out.problemf("traced campaign store persisted %d of %d probes", st.Persisted, got)
	}

	spans := tr.all()
	if err := writeTrace(e, wlCampaign, spans); err != nil {
		return nil, nil, err
	}
	by := statsByName(spans)
	visits := float64(len(camp.Events))
	d["overhead_ratio"] = runS / tracedS // visits/s traced over visits/s untraced
	d["sbclient.update_ms"] = by[spUpdate].medianDur / 1e6
	d["sbclient.checkurl_self_ns"] = by[spCheckURL].medianSelf
	// Mallocs over the whole loop, spans and set-up syncs included: an
	// upper estimate of what one visit allocates.
	d["sbclient.checkurl_allocs"] = float64(after.Mallocs-before.Mallocs) / visits
	d["prefixdb.contains_ns"] = by[spContains].medianDur
	d["prefixdb.contains_per_url"] = float64(v.contains) / visits
	d["prefixdb.apply_ms"] = by[spApply].medianDur / 1e6
	d["sbserver.flush_ns"] = by[spFlush].medianDur
	var lookups, localHits, cacheHits, realSent int
	for _, cl := range order {
		cs := cl.Stats()
		lookups += cs.Lookups
		localHits += cs.LocalHits
		cacheHits += cs.CacheHits
		realSent += cs.RealPrefixesSent
	}
	if lookups > 0 {
		d["sbclient.local_hit_ratio"] = float64(localHits) / float64(lookups)
	}
	if cacheHits+realSent > 0 {
		d["sbclient.cache_hit_ratio"] = float64(cacheHits) / float64(cacheHits+realSent)
	}
	if len(order) > 0 {
		if n := order[0].LocalPrefixCount(camp.Config.List); n > 0 {
			d["prefixdb.bytes_per_prefix"] = float64(order[0].LocalSizeBytes()) / float64(n)
		}
	}
	d["hit_exprs_per_url"] = float64(hitExprs) / visits
	return out, camp, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// campaignSinks opens the two sinks a campaign run feeds — a probe store
// in a fresh scratch directory and a longitudinal correlator — and
// returns the store's closer.
func campaignSinks(e *env, index *core.Index) (*probestore.Store, *core.Longitudinal, func() error, error) {
	dir, err := e.tempDir("tracedcampaign")
	if err != nil {
		return nil, nil, nil, err
	}
	store, err := probestore.Open(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	closed := false
	closer := func() error {
		if closed {
			return nil
		}
		closed = true
		return store.Close()
	}
	return store, core.NewLongitudinal(index, core.LongitudinalConfig{}), closer, nil
}
