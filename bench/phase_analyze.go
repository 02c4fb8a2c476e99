package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"sbprivacy/internal/core"
	"sbprivacy/internal/probestore"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/stream"
	"sbprivacy/internal/workload"
)

// analyzeSize sizes one analyze phase.
type analyzeSize struct {
	clients   int
	days      int
	amplify   int // epochs the captured campaign feed is repeated over
	segment   int64
	window    int // stream pipeline window in days
	queries   int // ClientHistory queries per history repetition
	ingestMin int // repetitions at least; more while the budget lasts
	replayMin int
	histMin   int
	budget    time.Duration // split 20/55/25 over ingest, replay, history
	setups    int
}

// probeCollector keeps a campaign's probe feed in delivery order.
type probeCollector struct {
	mu     sync.Mutex
	probes []sbserver.Probe
}

func (c *probeCollector) Observe(p sbserver.Probe) {
	c.mu.Lock()
	c.probes = append(c.probes, p)
	c.mu.Unlock()
}

// analyzeFeed is the amplified probe feed: a captured campaign's probes
// repeated over `epochs` epochs, each under its own cookie names and
// shifted by the campaign's length so epochs follow one another and the
// windowed stages keep evicting. The prefixes are untouched, so every
// epoch still re-identifies against the campaign's index. Only the base
// probes and the names are held; an epoch is put together when it is
// fed, outside the timed loops, so the process's memory is the system's
// and not a two-million-probe slice.
type analyzeFeed struct {
	base   []sbserver.Probe
	who    []int32    // base probe -> index of its cookie
	names  [][]string // epoch -> cookie index -> amplified cookie
	span   time.Duration
	epochs int

	index   *core.Index
	perID   map[string]int // probes per amplified cookie
	cookies []string       // every amplified cookie
}

// len is the number of probes in the feed.
func (f *analyzeFeed) len() int { return len(f.base) * f.epochs }

// epoch writes the probes of epoch k into buf (reused when large
// enough) and returns it.
func (f *analyzeFeed) epoch(k int, buf []sbserver.Probe) []sbserver.Probe {
	buf = buf[:0]
	shift := time.Duration(k) * f.span
	for j, p := range f.base {
		buf = append(buf, sbserver.Probe{Time: p.Time.Add(shift), ClientID: f.names[k][f.who[j]], Prefixes: p.Prefixes})
	}
	return buf
}

// all materialises the whole feed; for the traced run's smaller feeds.
func (f *analyzeFeed) all() []sbserver.Probe {
	out := make([]sbserver.Probe, 0, f.len())
	for k := 0; k < f.epochs; k++ {
		out = append(out, f.epoch(k, nil)...)
	}
	return out
}

// buildFeed runs a campaign, captures its probes, and names the cookies
// of every amplification epoch (suffix "#kk").
func buildFeed(e *env, sz analyzeSize) (*analyzeFeed, error) {
	camp, err := workload.Generate(workload.Config{Clients: sz.clients, Days: sz.days, Seed: e.seed})
	if err != nil {
		return nil, err
	}
	col := &probeCollector{}
	if _, err := camp.Run(e.ctx, col); err != nil {
		return nil, err
	}
	if len(col.probes) == 0 {
		return nil, errors.New("the campaign produced no probes")
	}
	f := &analyzeFeed{
		base:   col.probes,
		who:    make([]int32, len(col.probes)),
		names:  make([][]string, sz.amplify),
		span:   time.Duration(sz.days) * 24 * time.Hour,
		epochs: sz.amplify,
		index:  core.NewIndex(camp.IndexExpressions()),
		perID:  make(map[string]int),
	}
	var ids []string
	seen := make(map[string]int32)
	counts := make(map[int32]int)
	for j, p := range col.probes {
		c, ok := seen[p.ClientID]
		if !ok {
			c = int32(len(ids))
			seen[p.ClientID] = c
			ids = append(ids, p.ClientID)
		}
		f.who[j] = c
		counts[c]++
	}
	for k := range f.names {
		f.names[k] = make([]string, len(ids))
		for c, id := range ids {
			name := fmt.Sprintf("%s#%02d", id, k)
			f.names[k][c] = name
			f.perID[name] = counts[int32(c)]
			f.cookies = append(f.cookies, name)
		}
	}
	return f, nil
}

// runAnalyze times the store's read side and the streaming pipeline
// over one amplified feed: ingest, replay, client-history queries.
func runAnalyze(e *env, sz analyzeSize) (*phaseOut, error) {
	out := newPhaseOut()
	var feed *analyzeFeed
	var setups []float64
	for k := 0; k < sz.setups; k++ {
		t0 := time.Now()
		var err error
		if feed, err = buildFeed(e, sz); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.m["setup_s"], _ = median(setups)
	n := feed.len()

	// (a) Ingest: the whole feed through Store.Observe, then Close.
	var rates []float64
	var dir string
	var buf []sbserver.Probe
	start := time.Now()
	budget := time.Duration(0.20 * float64(sz.budget))
	for rep := 0; rep < sz.ingestMin || time.Since(start) < budget; rep++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		var err error
		if dir, err = e.tempDir("analyze"); err != nil {
			return nil, err
		}
		store, err := probestore.Open(dir, probestore.WithMaxSegmentBytes(sz.segment))
		if err != nil {
			return nil, err
		}
		var busy time.Duration
		for k := 0; k < feed.epochs; k++ {
			buf = feed.epoch(k, buf) // untimed: the benchmark's work, not the store's
			t0 := time.Now()
			for i := range buf {
				store.Observe(buf[i])
			}
			busy += time.Since(t0)
		}
		t0 := time.Now()
		if err := store.Close(); err != nil {
			return nil, err
		}
		busy += time.Since(t0)
		rates = append(rates, float64(n)/busy.Seconds())
		out.attempted += int64(n)
		if st := store.Stats(); st.Persisted != uint64(n) || st.WriteErrors != 0 || st.Dropped != 0 {
			out.problemf("ingest rep %d: persisted=%d writeErrors=%d dropped=%d, fed %d", rep, st.Persisted, st.WriteErrors, st.Dropped, n)
		}
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
	}
	defer os.RemoveAll(dir) //nolint:errcheck // scratch is removed on exit anyway
	out.m["ingest_probes_per_s"] = goodQuartile(rates, true)
	_, bytesPer, err := replayCount(dir)
	if err != nil {
		return nil, err
	}
	out.m["store_bytes_per_probe"] = bytesPer

	// (b) Replay: a read-only open streamed through both windowed
	// stages, plus one final snapshot.
	rates = rates[:0]
	start = time.Now()
	budget = time.Duration(0.55 * float64(sz.budget))
	for rep := 0; rep < sz.replayMin || time.Since(start) < budget; rep++ {
		t0 := time.Now()
		ro, err := probestore.Open(dir, probestore.ReadOnly())
		if err != nil {
			return nil, err
		}
		pl := stream.NewPipeline(
			stream.NewReidentStage(feed.index, sz.window),
			stream.NewLinkageStage(feed.index, core.LongitudinalConfig{}, sz.window),
		)
		err = stream.Replay(ro, pl)
		snaps := pl.Snapshot()
		if err = errors.Join(err, ro.Close()); err != nil {
			return nil, err
		}
		rates = append(rates, float64(n)/time.Since(t0).Seconds())
		out.attempted += int64(n)
		if pl.Observed() != int64(n) || len(snaps) != 2 {
			out.problemf("replay rep %d: pipeline observed %d of %d ingested probes", rep, pl.Observed(), n)
		}
		// The store replays stripe by stripe, so probes come back up to a
		// spill buffer out of time order; the window must be wide enough
		// that the stages tally them instead of rejecting them as late.
		for _, sn := range snaps {
			if rep == 0 {
				e.logf("  replay: stage %s tallied %d, dropped %d as late, evicted %d", sn.Name, sn.Stats.Observed, sn.Stats.LateDropped, sn.Stats.EvictedRecords)
			}
			if late := sn.Stats.LateDropped; late*100 > int64(n) && !e.quick {
				out.problemf("replay rep %d: stage %s dropped %d of %d probes as late; the window is too narrow for this feed", rep, sn.Name, late, n)
			}
		}
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
	}
	out.m["replay_probes_per_s"] = goodQuartile(rates, true)

	// (c) History: seeded ClientHistory queries, nine in ten for cookies
	// the feed holds, on a freshly opened store each repetition.
	rng := rand.New(rand.NewSource(e.seed ^ 0x68697374))
	queries := make([]string, sz.queries)
	for i := range queries {
		if rng.Intn(10) == 0 {
			queries[i] = fmt.Sprintf("absent-%08x", rng.Uint32())
		} else {
			queries[i] = feed.cookies[rng.Intn(len(feed.cookies))]
		}
	}
	rates = rates[:0]
	start = time.Now()
	budget = time.Duration(0.25 * float64(sz.budget))
	for rep := 0; rep < sz.histMin || time.Since(start) < budget; rep++ {
		ro, err := probestore.Open(dir, probestore.ReadOnly())
		if err != nil {
			return nil, err
		}
		wrong := 0
		t0 := time.Now()
		for _, q := range queries {
			h, err := ro.ClientHistory(q)
			if err != nil {
				return nil, errors.Join(err, ro.Close())
			}
			if len(h) != feed.perID[q] {
				wrong++
			}
		}
		elapsed := time.Since(t0)
		if err := ro.Close(); err != nil {
			return nil, err
		}
		rates = append(rates, float64(len(queries))/elapsed.Seconds())
		out.attempted += int64(len(queries))
		out.failed += int64(wrong)
		if wrong != 0 {
			out.problemf("history rep %d: %d of %d queries returned the wrong number of probes", rep, wrong, len(queries))
		}
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
	}
	out.m["history_qps"] = goodQuartile(rates, true)
	return out, nil
}
