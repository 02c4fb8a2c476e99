package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"sbprivacy/internal/blacklist"
	"sbprivacy/internal/hashx"
	"sbprivacy/internal/prefixtable"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/urlx"
	"sbprivacy/internal/wire"
)

// microBatch is how many calls one clock reading covers when a layer
// with no seam is replayed in isolation: at 256 calls the two clock
// reads cost well under a nanosecond per call.
const microBatch = 256

// timeBatches calls fn(0..n-1) in batches of microBatch and returns the
// median per-call time over batches, in nanoseconds, and the heap
// allocations per call over the whole replay. A trailing partial batch
// runs (so side effects cover every input) but is not timed.
func timeBatches(n int, fn func(i int)) (nsPerCall, allocsPerCall float64) {
	if n == 0 {
		return 0, 0
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var per []float64
	for lo := 0; lo < n; lo += microBatch {
		hi := min(lo+microBatch, n)
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			fn(i)
		}
		if hi-lo == microBatch || len(per) == 0 {
			per = append(per, float64(time.Since(t0))/float64(hi-lo))
		}
	}
	runtime.ReadMemStats(&after)
	nsPerCall, _ = median(per)
	return nsPerCall, float64(after.Mallocs-before.Mallocs) / float64(n)
}

// sink variables keep the compiler from discarding replayed calls.
var (
	sinkPrefix hashx.Prefix
	sinkInt    int
	sinkBool   bool
)

// microURL replays the client's per-URL string work — canonicalize,
// decompose, hash every decomposition — over the given URLs.
func microURL(urls []string, m measurements) error {
	canon := make([]urlx.Canonical, len(urls))
	var firstErr error
	ns, allocs := timeBatches(len(urls), func(i int) {
		c, err := urlx.Canonicalize(urls[i])
		if err != nil && firstErr == nil {
			firstErr = err
		}
		canon[i] = c
	})
	if firstErr != nil {
		return fmt.Errorf("isolated canonicalize: %w", firstErr)
	}
	m["urlx.canonicalize_ns"] = ns
	var decomps []string
	dns, dallocs := timeBatches(len(canon), func(i int) {
		decomps = append(decomps, canon[i].Decompositions()...)
	})
	m["urlx.decompose_ns"] = dns
	m["urlx.allocs_per_url"] = allocs + dallocs
	m["urlx.decomps_per_url"] = float64(len(decomps)) / float64(len(urls))
	m["hashx.sumprefix_ns"], _ = timeBatches(len(decomps), func(i int) {
		sinkPrefix = hashx.SumPrefix(decomps[i])
	})
	return nil
}

// microWire replays the codec over the generated full-hash requests and
// the responses the server gives for them, and Server.FullHashes itself.
func microWire(e *env, in *gethashInputs, scale int, m measurements) error {
	u, err := blacklist.BuildUniverse(blacklist.UniverseConfig{
		Provider: blacklist.Google, Scale: scale, Seed: e.seed,
		ServerOptions: []sbserver.Option{sbserver.WithProbeLogLimit(1024)},
	})
	if err != nil {
		return err
	}
	if err := u.Server.AddURLs(plantedList, in.urls()); err != nil {
		return err
	}
	reqs := in.reqs[0]
	n := len(reqs)

	resps := make([]*wire.FullHashResponse, n)
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	m["sbserver.fullhashes_ns"], m["sbserver.fullhashes_allocs"] = timeBatches(n, func(i int) {
		resp, err := u.Server.FullHashes(reqs[i])
		note(err)
		resps[i] = resp
	})
	if err := u.Server.Close(); err != nil {
		return err
	}

	var buf bytes.Buffer
	reqWire := make([][]byte, n)
	var total float64
	var allocs float64
	ns, a := timeBatches(n, func(i int) {
		buf.Reset()
		note(reqs[i].Encode(&buf))
		reqWire[i] = append(reqWire[i][:0], buf.Bytes()...)
	})
	m["wire.req_encode_ns"], allocs = ns, a
	for _, b := range reqWire {
		total += float64(len(b))
	}
	m["wire.req_bytes"] = total / float64(n)
	ns, a = timeBatches(n, func(i int) {
		_, err := wire.DecodeFullHashRequest(bytes.NewReader(reqWire[i]))
		note(err)
	})
	m["wire.req_decode_ns"], allocs = ns, allocs+a

	respWire := make([][]byte, n)
	ns, a = timeBatches(n, func(i int) {
		buf.Reset()
		note(resps[i].Encode(&buf))
		respWire[i] = append(respWire[i][:0], buf.Bytes()...)
	})
	m["wire.resp_encode_ns"], allocs = ns, allocs+a
	total = 0
	for _, b := range respWire {
		total += float64(len(b))
	}
	m["wire.resp_bytes"] = total / float64(n)
	ns, a = timeBatches(n, func(i int) {
		_, err := wire.DecodeFullHashResponse(bytes.NewReader(respWire[i]))
		note(err)
	})
	m["wire.resp_decode_ns"], allocs = ns, allocs+a
	// The copies into reqWire/respWire are the replay's, not the codec's.
	m["wire.allocs_per_roundtrip"] = allocs - 2

	frames := n / batchFrame
	frameWire := make([][]byte, frames)
	for f := range frameWire {
		batch := wire.FullHashBatchRequest{Requests: make([]wire.FullHashRequest, batchFrame)}
		for k := range batch.Requests {
			batch.Requests[k] = *reqs[f*batchFrame+k]
		}
		buf.Reset()
		note(batch.Encode(&buf))
		frameWire[f] = append([]byte(nil), buf.Bytes()...)
	}
	ns, _ = timeBatches(frames, func(i int) {
		_, err := wire.DecodeFullHashBatchRequest(bytes.NewReader(frameWire[i]))
		note(err)
	})
	m["wire.batch_decode_ns_per_req"] = ns / batchFrame
	if firstErr != nil {
		return fmt.Errorf("isolated codec replay: %w", firstErr)
	}
	return nil
}

// microIndex replays prefixtable.Table.Find, through the public Table
// API, over a table holding the prefixes the server serves.
func microIndex(seed int64, served []hashx.Prefix, m measurements) {
	t := prefixtable.New(len(served))
	for _, p := range served {
		var d hashx.Digest
		b := p.Bytes()
		copy(d[:], b[:])
		t.Add(p, 0, plantedList, d)
	}
	rng := rand.New(rand.NewSource(seed))
	const lookups = 1 << 16
	hits := make([]hashx.Prefix, lookups)
	misses := make([]hashx.Prefix, lookups)
	for i := range hits {
		hits[i] = served[rng.Intn(len(served))]
		for {
			p := hashx.Prefix(rng.Uint32())
			if !t.Contains(p) {
				misses[i] = p
				break
			}
		}
	}
	find := func(ps []hashx.Prefix) float64 {
		ns, _ := timeBatches(len(ps), func(i int) {
			c := t.Find(ps[i])
			for c.Next() {
				sinkInt++
			}
		})
		return ns
	}
	m["prefixtable.lookup_hit_ns"] = find(hits)
	m["prefixtable.lookup_miss_ns"] = find(misses)
	m["prefixtable.bytes_per_prefix"] = float64(t.SizeBytes()) / float64(t.Len())
}

// microLimiter replays TokenBucket.Allow on a bucket that never empties.
func microLimiter(m measurements) {
	b := sbserver.NewTokenBucket(limitRate, limitBurst, nil)
	m["limiter.allow_ns"], _ = timeBatches(1<<16, func(int) {
		sinkBool, _ = b.Allow()
	})
}
