package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"sbprivacy/internal/core"
	"sbprivacy/internal/probestore"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/stream"
)

// stageSampleEvery is how often a stage wrapper turns a call into a
// span; every call is still forwarded and counted.
const stageSampleEvery = 16

// spanStage wraps one stream.Stage: sampled Observe and Advance calls
// become spans, and the resident-cookie gauge is sampled as the feed
// goes by.
type spanStage struct {
	stream.Stage
	tr          *tracer
	n           int64
	peakCookies int
}

func (s *spanStage) Observe(p sbserver.Probe) {
	s.n++
	if s.n%1024 == 0 {
		s.peakCookies = max(s.peakCookies, s.Stage.Stats().ResidentCookies)
	}
	if s.n%stageSampleEvery != 0 {
		s.Stage.Observe(p)
		return
	}
	sp := s.tr.begin("stream."+s.Name()+".observe", 0, 0)
	s.Stage.Observe(p)
	sp.end()
}

func (s *spanStage) Advance(t time.Time) {
	if (s.n+1)%stageSampleEvery != 0 {
		s.Stage.Advance(t)
		return
	}
	sp := s.tr.begin("stream."+s.Name()+".advance", 0, 0)
	s.Stage.Advance(t)
	sp.end()
}

// tracedAnalyzeSize is the shortened analyze workload of the traced run.
func tracedAnalyzeSize(quick bool) analyzeSize {
	if quick {
		return quickSizes(false).analyze
	}
	return analyzeSize{clients: 1000, days: 14, amplify: 6, segment: 256 << 10, window: 28, queries: 4000}
}

// ingest feeds every probe to sink, then flushes and closes the store,
// returning the elapsed time of the last two.
func ingest(probes []sbserver.Probe, store *probestore.Store, sink sbserver.ProbeSink) (flush, closing time.Duration, err error) {
	for i := range probes {
		sink.Observe(probes[i])
	}
	t0 := time.Now()
	if err = store.Flush(); err != nil {
		return 0, 0, errors.Join(err, store.Close())
	}
	flush = time.Since(t0)
	t0 = time.Now()
	err = store.Close()
	return flush, time.Since(t0), err
}

// tracedAnalyze reruns a shortened analyze workload: an untraced pass
// for the baseline, isolated replays of Store.Observe and
// Pipeline.Observe, and a traced pass with a recorder around the store
// (as a ProbeSink) and around each stream stage.
func tracedAnalyze(e *env) (*phaseOut, error) {
	out := newPhaseOut()
	d := out.diag
	sz := tracedAnalyzeSize(e.quick)
	feed, err := buildFeed(e, sz)
	if err != nil {
		return nil, err
	}
	probes := feed.all()
	n := len(probes)
	open := func() (*probestore.Store, string, error) {
		dir, err := e.tempDir("tracedanalyze")
		if err != nil {
			return nil, "", err
		}
		s, err := probestore.Open(dir, probestore.WithMaxSegmentBytes(sz.segment))
		return s, dir, err
	}
	newPipeline := func(wrap func(stream.Stage) stream.Stage) *stream.Pipeline {
		return stream.NewPipeline(
			wrap(stream.NewReidentStage(feed.index, sz.window)),
			wrap(stream.NewLinkageStage(feed.index, core.LongitudinalConfig{}, sz.window)),
		)
	}
	plain := func(s stream.Stage) stream.Stage { return s }

	// Baseline, tracing off: ingest then replay.
	store, dir, err := open()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, _, err := ingest(probes, store, store); err != nil {
		return nil, err
	}
	ro, err := probestore.Open(dir, probestore.ReadOnly())
	if err != nil {
		return nil, err
	}
	err = stream.Replay(ro, newPipeline(plain))
	if err = errors.Join(err, ro.Close()); err != nil {
		return nil, err
	}
	baseS := time.Since(t0).Seconds()

	// Isolated: Store.Observe in batches, then each call on its own
	// clock for the tail the spilling calls make.
	store, _, err = open()
	if err != nil {
		return nil, err
	}
	d["probestore.observe_ns"], _ = timeBatches(n, func(i int) { store.Observe(probes[i]) })
	if err := store.Close(); err != nil {
		return nil, err
	}
	isolated := newPipeline(plain)
	d["stream.observe_ns"], _ = timeBatches(n, func(i int) { isolated.Observe(probes[i]) })

	// Traced: every Store.Observe a span, stages sampled.
	tr := newTracer()
	t0 = time.Now()
	store, dir, err = open()
	if err != nil {
		return nil, err
	}
	flush, closing, err := ingest(probes, store, spanSink{inner: store, tr: tr})
	if err != nil {
		return nil, err
	}
	d["probestore.flush_ms"] = float64(flush) / float64(time.Millisecond)
	d["probestore.close_ms"] = float64(closing) / float64(time.Millisecond)
	st := store.Stats()
	d["probestore.segments"] = float64(st.Segments)
	d["probestore.write_errors"] = float64(st.WriteErrors)
	if st.Persisted != uint64(n) {
		out.problemf("traced ingest persisted %d of %d probes", st.Persisted, n)
	}

	tOpen := time.Now()
	ro, err = probestore.Open(dir, probestore.ReadOnly())
	if err != nil {
		return nil, err
	}
	d["probestore.open_ms"] = msSince(tOpen)
	stages := []*spanStage{}
	pl := newPipeline(func(s stream.Stage) stream.Stage {
		w := &spanStage{Stage: s, tr: tr}
		stages = append(stages, w)
		return w
	})
	if err := stream.Replay(ro, pl); err != nil {
		return nil, errors.Join(err, ro.Close())
	}
	tSnap := time.Now()
	snaps := pl.Snapshot()
	d["stream.snapshot_ms"] = msSince(tSnap)
	tracedS := time.Since(t0).Seconds()
	d["overhead_ratio"] = baseS / tracedS
	if pl.Observed() != int64(n) {
		out.problemf("traced replay observed %d of %d probes", pl.Observed(), n)
	}
	var evicted, late int64
	peak := 0
	for i, s := range stages {
		evicted += snaps[i].Stats.EvictedRecords
		late += snaps[i].Stats.LateDropped
		peak = max(peak, s.peakCookies, snaps[i].Stats.ResidentCookies)
	}
	d["stream.peak_resident_cookies"] = float64(peak)
	d["stream.evicted_records"] = float64(evicted)
	d["stream.late_dropped"] = float64(late)

	// The store's own replay cost, without the stages behind it.
	count := 0
	tReplay := time.Now()
	err = ro.Replay(func(sbserver.Probe) error { count++; return nil })
	d["probestore.replay_ns_per_probe"] = float64(time.Since(tReplay)) / float64(max(count, 1))
	if err = errors.Join(err, ro.Close()); err != nil {
		return nil, err
	}
	if count != n {
		out.problemf("plain replay delivered %d of %d probes", count, n)
	}

	if err := tracedHistory(e, dir, feed, sz.queries, out); err != nil {
		return nil, err
	}
	out.attempted += int64(3*n + sz.queries)

	spans := tr.all()
	if err := writeTrace(e, wlAnalyze, spans); err != nil {
		return nil, err
	}
	by := statsByName(spans)
	var obs []float64
	for _, s := range spans {
		if s.Name == spObserve {
			obs = append(obs, float64(s.dur())/1000)
		}
	}
	sort.Float64s(obs)
	d["probestore.observe_p999_us"], _ = bestPercentile(obs, 0.999)
	d["stream.reident_observe_ns"] = by["stream.reident.observe"].medianDur
	d["stream.linkage_observe_ns"] = by["stream.linkage.observe"].medianDur
	if by["stream.reident.observe"].count == 0 || by["stream.linkage.observe"].count == 0 {
		return nil, errors.New("traced replay recorded no reident or linkage stage spans")
	}
	return out, nil
}

// tracedHistory times ClientHistory query by query on a freshly opened
// store, present and absent cookies apart, and reads how many segment
// files the bloom sidecars let the queries skip.
func tracedHistory(e *env, dir string, feed *analyzeFeed, queries int, out *phaseOut) error {
	ro, err := probestore.Open(dir, probestore.ReadOnly())
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.seed ^ 0x68697374))
	var hit, absent []float64
	for i := 0; i < queries; i++ {
		id, want := fmt.Sprintf("absent-%08x", rng.Uint32()), 0
		present := rng.Intn(10) != 0
		if present {
			id = feed.cookies[rng.Intn(len(feed.cookies))]
			want = feed.perID[id]
		}
		t0 := time.Now()
		h, err := ro.ClientHistory(id)
		us := float64(time.Since(t0)) / float64(time.Microsecond)
		if err != nil {
			return errors.Join(err, ro.Close())
		}
		if len(h) != want {
			out.failed++
		}
		if present {
			hit = append(hit, us)
		} else {
			absent = append(absent, us)
		}
	}
	st := ro.Stats()
	if err := ro.Close(); err != nil {
		return err
	}
	if out.failed != 0 {
		out.problemf("traced history: %d queries returned the wrong number of probes", out.failed)
	}
	d := out.diag
	d["probestore.history_hit_p50_us"], _ = median(hit)
	d["probestore.history_absent_p50_us"], _ = median(absent)
	d["probestore.segment_opens_per_query"] = float64(st.SegmentOpens) / float64(max(queries, 1))
	if total := st.SegmentOpens + st.BloomSkips; total > 0 {
		d["probestore.bloom_skip_ratio"] = float64(st.BloomSkips) / float64(total)
	}
	return nil
}
