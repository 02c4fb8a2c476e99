package stream

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"sbprivacy/internal/core"
	"sbprivacy/internal/probestore"
	"sbprivacy/internal/sbserver"
)

// TestFollowFanInUnderRace is the concurrency hammer: a writer fills a
// store (tiny segments, so Follow crosses rotations and resyncs) while
// Follow fans the feed into a two-stage pipeline and other goroutines
// hammer Snapshot and Stats mid-flight. Run under -race this exercises
// every lock in the fan-in path; afterwards the pipeline must have seen
// every probe exactly once and snapshot identically to a batch replay.
func TestFollowFanInUnderRace(t *testing.T) {
	t.Parallel()
	const totalProbes = 400
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	w, err := probestore.Open(dir, probestore.WithMaxSegmentBytes(2048))
	if err != nil {
		t.Fatalf("open writable: %v", err)
	}
	x := testIndex()
	pl, re, link := newTestPipeline(x, 3)

	ro, err := probestore.Open(dir, probestore.ReadOnly())
	if err != nil {
		t.Fatalf("open read-only: %v", err)
	}
	defer func() {
		if err := ro.Close(); err != nil {
			t.Errorf("close read-only: %v", err)
		}
	}()

	followCtx, stopFollow := context.WithCancel(ctx)
	followErr := make(chan error, 1)
	go func() {
		followErr <- Follow(followCtx, ro, pl, probestore.WithFollowPoll(time.Millisecond))
	}()

	// Writer: spill probes with frequent flushes so the tail grows while
	// the follower reads, forcing partial-segment resyncs.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < totalProbes; i++ {
			d := i / 50 // 50 probes per virtual day
			w.Observe(probeFor(fmt.Sprintf("c%02d", i%16), day(d, 1+i%20),
				"news.example/world"))
			if i%7 == 0 {
				if err := w.Flush(); err != nil {
					t.Errorf("flush: %v", err)
					return
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Errorf("close writable: %v", err)
		}
	}()

	// Hammer snapshots and stats concurrently with the fan-in.
	hammerCtx, stopHammer := context.WithCancel(ctx)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for hammerCtx.Err() == nil {
				for _, s := range pl.Snapshot() {
					_ = s.Report.String()
				}
				_ = re.Stats()
				_ = link.Stats()
			}
		}()
	}

	// Wait for the follower to deliver everything, then stop cleanly.
	for pl.Observed() < totalProbes {
		if ctx.Err() != nil {
			t.Fatalf("timed out with %d/%d probes delivered", pl.Observed(), totalProbes)
		}
		time.Sleep(time.Millisecond)
	}
	stopFollow()
	if err := <-followErr; err != nil {
		t.Fatalf("follow: %v", err)
	}
	stopHammer()
	wg.Wait()

	if got := pl.Observed(); got != totalProbes {
		t.Fatalf("pipeline observed %d probes, want exactly %d", got, totalProbes)
	}

	// The concurrent run must land on the same state as a quiet batch
	// replay of the sealed store through an identical pipeline.
	batch, err := probestore.Open(dir, probestore.ReadOnly())
	if err != nil {
		t.Fatalf("reopen for replay: %v", err)
	}
	defer func() {
		if err := batch.Close(); err != nil {
			t.Errorf("close replay store: %v", err)
		}
	}()
	pl2, _, _ := newTestPipeline(core.NewIndex(x.URLs()), 3)
	if err := Replay(batch, pl2); err != nil {
		t.Fatalf("replay: %v", err)
	}
	live, quiet := pl.Snapshot(), pl2.Snapshot()
	if !reflect.DeepEqual(live, quiet) {
		t.Errorf("live fan-in snapshot diverges from batch replay:\nlive: %+v\nquiet: %+v", live, quiet)
	}
}

// TestSharedIndexConcurrentReaders: one *core.Index scores for a batch
// Longitudinal and a Pipeline at once, fed by four goroutines over
// disjoint cookie shards of a campaign while a fifth renders reports
// from them mid-flight. Afterwards every report must
// deep-equal a serial feed's. The pipeline is unwindowed: eviction
// follows the order probes arrive in, which concurrent feeders do not
// fix, while unwindowed state is a pure function of the probe multiset.
func TestSharedIndexConcurrentReaders(t *testing.T) {
	t.Parallel()
	x, probes := campaignFeed(t, 80, 7, 13)
	type sinks struct {
		l  *core.Longitudinal
		pl *Pipeline
	}
	newSinks := func() sinks {
		pl, _, _ := newTestPipeline(x, 0)
		return sinks{core.NewLongitudinal(x, core.LongitudinalConfig{}), pl}
	}
	feed := func(s sinks, probes []sbserver.Probe) {
		for _, p := range probes {
			s.l.Observe(p)
			s.pl.Observe(p)
		}
	}
	serial := newSinks()
	feed(serial, probes)

	const shards = 4
	byShard := make([][]sbserver.Probe, shards)
	shardOf := map[string]int{}
	for _, p := range probes {
		k, ok := shardOf[p.ClientID]
		if !ok {
			k = len(shardOf) % shards
			shardOf[p.ClientID] = k
		}
		byShard[k] = append(byShard[k], p)
	}
	conc := newSinks()
	var feeders, reader sync.WaitGroup
	done := make(chan struct{})
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = conc.l.Report()
			_ = conc.pl.Snapshot()
		}
	}()
	for _, shard := range byShard {
		feeders.Add(1)
		go func(shard []sbserver.Probe) {
			defer feeders.Done()
			feed(conc, shard)
		}(shard)
	}
	feeders.Wait()
	close(done)
	reader.Wait()

	if got, want := conc.l.Report(), serial.l.Report(); !reflect.DeepEqual(got, want) {
		t.Error("concurrent Longitudinal report diverges from the serial feed's")
	}
	if got, want := conc.pl.Snapshot(), serial.pl.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Error("concurrent pipeline snapshot diverges from the serial feed's")
	}
}
