package probestore

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/sbserver"
)

// BenchmarkStoreIngest measures sustained Observe throughput with
// aggressive segment rotation and retention enabled — the configuration
// that proves spilling keeps memory bounded while the disk absorbs the
// stream. live-MB reports the on-disk working set; heap growth stays
// flat because only the write buffer, the tail segment's cookie set and
// the sealed segments' Bloom filters are resident — nothing per record.
func BenchmarkStoreIngest(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir,
		WithMaxSegmentBytes(1<<20),
		WithRetainSegments(8),
	)
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	clients := make([]string, 64)
	for i := range clients {
		clients[i] = fmt.Sprintf("bench-client-%02d", i)
	}
	base := time.Unix(1457_000_000, 0)
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(sbserver.Probe{
			Time:     base.Add(time.Duration(i) * time.Microsecond),
			ClientID: clients[i%len(clients)],
			Prefixes: []hashx.Prefix{hashx.Prefix(i), hashx.Prefix(i * 31)},
		})
	}
	if err := s.Flush(); err != nil {
		b.Fatalf("Flush: %v", err)
	}
	b.StopTimer()

	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := s.Stats()
	if st.WriteErrors != 0 {
		b.Fatalf("write errors: %+v", st)
	}
	b.ReportMetric(float64(st.LiveBytes)/(1<<20), "live-MB")
	heapGrowth := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	b.ReportMetric(heapGrowth/(1<<20), "heapgrowth-MB")
	if err := s.Close(); err != nil {
		b.Fatalf("Close: %v", err)
	}
}

// BenchmarkStoreIngestParallel is BenchmarkStoreIngest with concurrent
// producers, each with its own cookies: every Observe takes the store's
// one lock, so this is the figure that decides whether one lock is
// enough. On the 2-vCPU machine the decision was taken on it was (a
// 16-buffer, 16-lock writer was no faster); re-measure with
// -cpu 1,2,8,16 on a wider one before concluding otherwise.
func BenchmarkStoreIngestParallel(b *testing.B) {
	s, err := Open(b.TempDir(),
		WithMaxSegmentBytes(1<<20),
		WithRetainSegments(8),
	)
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	base := time.Unix(1457_000_000, 0)
	var producers atomic.Int64

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := producers.Add(1)
		clients := make([]string, 8)
		for i := range clients {
			clients[i] = fmt.Sprintf("bench-client-%02d-%d", g, i)
		}
		for i := 0; pb.Next(); i++ {
			s.Observe(sbserver.Probe{
				Time:     base.Add(time.Duration(i) * time.Microsecond),
				ClientID: clients[i%len(clients)],
				Prefixes: []hashx.Prefix{hashx.Prefix(i), hashx.Prefix(i * 31)},
			})
		}
	})
	if err := s.Flush(); err != nil {
		b.Fatalf("Flush: %v", err)
	}
	b.StopTimer()

	if st := s.Stats(); st.WriteErrors != 0 || st.Dropped != 0 || st.Received != uint64(b.N) {
		b.Fatalf("lost probes: %+v (b.N = %d)", st, b.N)
	}
	if err := s.Close(); err != nil {
		b.Fatalf("Close: %v", err)
	}
}

// BenchmarkStoreReplay measures how fast a persisted log streams back
// into an analysis pass.
func BenchmarkStoreReplay(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, WithMaxSegmentBytes(1<<20))
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	const n = 100_000
	for i := 0; i < n; i++ {
		s.Observe(probeBench(i))
	}
	if err := s.Close(); err != nil {
		b.Fatalf("Close: %v", err)
	}
	r, err := Open(dir, ReadOnly())
	if err != nil {
		b.Fatalf("Open read-only: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		if err := r.Replay(func(p sbserver.Probe) error {
			count++
			return nil
		}); err != nil {
			b.Fatalf("Replay: %v", err)
		}
		if count != n {
			b.Fatalf("replayed %d, want %d", count, n)
		}
	}
	b.ReportMetric(float64(n), "probes/replay")
}

// BenchmarkClientHistorySparse measures the sidecar payoff: a client
// that appears in one segment out of many is reconstructed by looking
// only inside the bloom-matching segments. opens/op and skips/op make
// the scaling visible — the first query indexes the matching segments
// (one open each) and every later one reads through the handles those
// indexes keep, so opens/op tends to 0 while the store holds dozens of
// segments; without the sidecars every query would scan all of them.
func BenchmarkClientHistorySparse(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, WithMaxSegmentBytes(16<<10))
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	// Two probes from the sparse client, then bulk traffic spreading
	// over many more segments.
	base := time.Unix(1457_000_000, 0)
	s.Observe(sbserver.Probe{Time: base, ClientID: "sparse-client",
		Prefixes: []hashx.Prefix{1, 2}})
	s.Observe(sbserver.Probe{Time: base, ClientID: "sparse-client",
		Prefixes: []hashx.Prefix{3}})
	for i := 0; i < 50_000; i++ {
		s.Observe(sbserver.Probe{
			Time:     base.Add(time.Duration(i) * time.Microsecond),
			ClientID: fmt.Sprintf("bulk-client-%02d", i%64),
			Prefixes: []hashx.Prefix{hashx.Prefix(i)},
		})
	}
	if err := s.Close(); err != nil {
		b.Fatalf("Close: %v", err)
	}
	r, err := Open(dir, ReadOnly())
	if err != nil {
		b.Fatalf("Open read-only: %v", err)
	}
	segments := len(r.Segments())
	if segments < 20 {
		b.Fatalf("only %d segments; the sparse scaling needs many", segments)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hist, err := r.ClientHistory("sparse-client")
		if err != nil {
			b.Fatalf("ClientHistory: %v", err)
		}
		if len(hist) != 2 {
			b.Fatalf("history has %d probes, want 2", len(hist))
		}
	}
	b.StopTimer()
	st := r.Stats()
	opensPerOp := float64(st.SegmentOpens) / float64(b.N)
	b.ReportMetric(float64(segments), "segments")
	b.ReportMetric(opensPerOp, "opens/op")
	b.ReportMetric(float64(st.BloomSkips)/float64(b.N), "skips/op")
	// The acceptance bound: opens scale with bloom hits, not segment
	// count. Steady state is no open at all; the first iteration's lazy
	// index builds are the only ones.
	if opensPerOp > float64(segments)/4 {
		b.Fatalf("opens/op = %.1f across %d segments: bloom skipping is not engaged", opensPerOp, segments)
	}
}

func probeBench(i int) sbserver.Probe {
	return sbserver.Probe{
		Time:     time.Unix(1457_000_000, int64(i)),
		ClientID: fmt.Sprintf("bench-client-%02d", i%32),
		Prefixes: []hashx.Prefix{hashx.Prefix(i)},
	}
}
