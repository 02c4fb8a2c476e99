package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"sbprivacy/internal/blacklist"
	"sbprivacy/internal/hashx"
	"sbprivacy/internal/prefixdb"
	"sbprivacy/internal/probestore"
	"sbprivacy/internal/sbclient"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/wire"
)

// batchFrame is the number of full-hash requests per batch frame: the
// wire format's maximum, so the HTTP hop is amortised as far as it goes.
const batchFrame = wire.MaxBatchRequests

// gethashSize sizes one HTTP phase.
type gethashSize struct {
	child   bool // spawn cmd/sbserver (full size) or serve in-process (panel, traced)
	scale   int  // blacklist scale divisor, as sbserver -scale
	planted int
	cookies int
	ring    int // requests generated per worker; a multiple of batchFrame
	warm    time.Duration
	measure time.Duration
	// servers is how many provider instances the phase sets up, one
	// after the other; each is loaded for measure/servers after its own
	// warm-up, and every figure is the median over instances.
	servers int
}

// phaseOut is what one phase hands back to its workload.
type phaseOut struct {
	m         measurements // end-to-end figures
	diag      measurements // diagnostics the traced run publishes per layer
	attempted int64
	failed    int64
	problems  []string // verification failures; any makes the run incorrect
}

func newPhaseOut() *phaseOut {
	return &phaseOut{m: measurements{}, diag: measurements{}}
}

func (o *phaseOut) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// fullHasher is the client side of both HTTP workloads; HTTPTransport
// and RetryTransport implement it, and the traced run wraps them.
type fullHasher interface {
	sbclient.Transport
	FullHashesBatch(ctx context.Context, reqs []*wire.FullHashRequest) ([]*wire.FullHashResponse, error)
}

// recordingStore is the StoreFactory product the set-up sync injects: a
// real delta-coded store that also keeps every prefix the update feed
// added, which is how the benchmark learns what the server serves.
type recordingStore struct {
	prefixdb.Updatable
	added *[]hashx.Prefix
}

func (s recordingStore) Apply(add, remove []hashx.Prefix) {
	*s.added = append(*s.added, add...)
	s.Updatable.Apply(add, remove)
}

// gethashRun is one provider made ready for load.
type gethashRun struct {
	in         *gethashInputs
	prov       provider
	storeDir   string
	client     *http.Client
	downloaded []hashx.Prefix // every prefix the sync received
}

// googleLists names the lists a client of the Google inventory syncs.
func googleLists() []string {
	var names []string
	for _, li := range blacklist.ListsFor(blacklist.Google) {
		names = append(names, li.Name)
	}
	return names
}

func newHTTPClient(workers int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        2 * workers,
		MaxIdleConnsPerHost: 2 * workers,
		DisableCompression:  true,
	}}
}

// setupGethash performs one complete set-up: generate the request
// stream from the seed, start the provider, and learn its prefixes with
// a real Client.Update over HTTP (which exercises /downloads).
func setupGethash(e *env, batch bool, sz gethashSize, opts inprocOpts) (*gethashRun, error) {
	in, err := genGethashInputs(e.seed, e.workers, sz.planted, sz.cookies, sz.ring)
	if err != nil {
		return nil, err
	}
	r := &gethashRun{in: in, client: newHTTPClient(e.workers)}
	spec := serverSpec{scale: sz.scale, seed: e.seed, urls: in.urls()}
	if batch {
		if r.storeDir, err = e.tempDir("serverstore"); err != nil {
			return nil, err
		}
		spec.storeDir = r.storeDir
	}
	if sz.child {
		r.prov, err = startChild(e, spec)
	} else {
		r.prov, err = startInproc(spec, opts)
	}
	if err != nil {
		return nil, err
	}
	sync := sbclient.New(
		sbclient.HTTPTransport{BaseURL: r.prov.baseURL(), Client: r.client},
		googleLists(),
		sbclient.WithCookie("bench-sync"),
		sbclient.WithStoreFactory(func() prefixdb.Updatable {
			return recordingStore{Updatable: prefixdb.NewDeltaStore(nil), added: &r.downloaded}
		}),
	)
	if err := sync.Update(e.ctx, true); err != nil {
		r.close()
		return nil, fmt.Errorf("set-up sync: %w", err)
	}
	return r, nil
}

// close tears the provider down and, for a batch run, deletes its store.
func (r *gethashRun) close() {
	r.prov.kill()
	r.client.CloseIdleConnections()
	if r.storeDir != "" {
		os.RemoveAll(r.storeDir) //nolint:errcheck // scratch is removed on exit anyway
	}
}

// load drives the closed loop for total (warm-up included): single
// gethash frames, or batchFrame requests per frame, verified as they
// return.
func (r *gethashRun) load(e *env, batch bool, total time.Duration, tp fullHasher) loadOut {
	in := r.in
	if !batch {
		return closedLoop(e.ctx, e.workers, total, func(w, i int) bool {
			k := i % len(in.reqs[w])
			resp, err := tp.FullHashes(e.ctx, in.reqs[w][k])
			return err == nil && in.planted[in.want[w][k]].checkAnswer(resp)
		})
	}
	return closedLoop(e.ctx, e.workers, total, func(w, i int) bool {
		lo := (i % (len(in.reqs[w]) / batchFrame)) * batchFrame
		resps, err := tp.FullHashesBatch(e.ctx, in.reqs[w][lo:lo+batchFrame])
		if err != nil || len(resps) != batchFrame {
			return false
		}
		for k, resp := range resps {
			if !in.planted[in.want[w][lo+k]].checkAnswer(resp) {
				return false
			}
		}
		return true
	})
}

// runGethash is the whole HTTP phase. It sets up sz.servers provider
// instances one after the other and on each: syncs, warms up, drives
// the closed loop for its share of the measured time, drains and
// verifies. The measured time of every server is cut into windows;
// rates and latencies are the good-side quartile over all windows of
// all servers (see goodQuartile), setup_s and peak_rss_mb the median
// over servers. Several servers, because two instances of one seed
// differ — heap layout, where the kernel put the process, how the
// store's write-back falls — in a way no longer run of one evens out.
func runGethash(e *env, batch bool, sz gethashSize) (*phaseOut, error) {
	out := newPhaseOut()
	var setups, rss, drains, bytesPer, pooled []float64
	var windows []windowStat // of every server
	measure := sz.measure / time.Duration(sz.servers)
	oneServer := func(k int) error {
		t0 := time.Now()
		r, err := setupGethash(e, batch, sz, inprocOpts{})
		if err != nil {
			return err
		}
		defer r.close()
		setups = append(setups, time.Since(t0).Seconds())
		st, lo, peak, err := r.measure(e, batch, sz, measure)
		if err != nil {
			return err
		}
		rss = append(rss, peak)
		drains = append(drains, float64(st.drain)/float64(time.Millisecond))

		if k == 0 {
			have := make(map[hashx.Prefix]bool, len(r.downloaded))
			for _, p := range r.downloaded {
				have[p] = true
			}
			for _, p := range r.in.planted {
				if !have[p.prefix] {
					out.problemf("planted prefix %v missing from the update feed", p.prefix)
					break
				}
			}
		}
		out.attempted += lo.attempted
		out.failed += lo.failed
		if lo.failed != 0 {
			out.problemf("server %d: %d of %d operations failed or were answered wrongly", k, lo.failed, lo.attempted)
		}
		okOps := uint64(lo.attempted - lo.failed)
		if batch {
			okOps *= batchFrame
		}
		if st.received != okOps || st.dropped != 0 {
			out.problemf("server %d accounting: received=%d dropped=%d, client saw %d answered requests", k, st.received, st.dropped, okOps)
		}
		if batch {
			b, err := verifyServerStore(r.storeDir, st, okOps, out)
			if err != nil {
				return err
			}
			bytesPer = append(bytesPer, b)
		}

		n := windowsFor(len(lo.samples))
		ws := windowStats(lo.samples, sz.warm, measure/time.Duration(n), n)
		for i, w := range ws {
			e.logf("  server %d window %d: %d ops, %.0f/s, p50 %.1f us, p99 %.1f us (read at %.3f)", k, i, w.ops, w.perSec, w.p50us, w.p99us, w.p99used)
		}
		windows = append(windows, ws...)
		for _, s := range lo.samples {
			if s.end >= sz.warm {
				pooled = append(pooled, float64(s.lat)/float64(time.Microsecond))
			}
		}
		return nil
	}
	for k := 0; k < sz.servers; k++ {
		if err := oneServer(k); err != nil {
			return nil, err
		}
	}
	med := func(xs []float64) float64 { m, _ := median(xs); return m }
	out.m["setup_s"] = med(setups)
	out.m["peak_rss_mb"] = med(rss)
	perSec := goodQuartile(column(windows, func(w windowStat) float64 { return w.perSec }), true)
	p50 := goodQuartile(column(windows, func(w windowStat) float64 { return w.p50us }), false)
	// A window stalled so badly that it holds under a thousand operations
	// cannot support a p99 and gives none; the phase needs a few that can.
	var p99s []float64
	for _, w := range windows {
		if w.p99used >= 0.99 || e.quick {
			p99s = append(p99s, w.p99us)
		}
	}
	if len(p99s) < min(3, len(windows)) {
		out.problemf("only %d of %d windows hold enough operations to support a p99", len(p99s), len(windows))
	}
	p99 := goodQuartile(p99s, false)
	if batch {
		out.m["batch_lookups_per_s"] = perSec * batchFrame
		out.m["batch_frame_p99_us"] = p99
		out.m["store_bytes_per_probe"] = med(bytesPer)
	} else {
		out.m["gethash_rps"] = perSec
		out.m["gethash_p50_us"] = p50
		out.m["gethash_p99_us"] = p99
	}
	out.diag["drain_ms"] = med(drains)
	sort.Float64s(pooled)
	if len(pooled) > 0 {
		out.diag["rtt_p999_us"], _ = bestPercentile(pooled, 0.999)
		out.diag["rtt_max_us"] = pooled[len(pooled)-1]
	}
	return out, nil
}

// measure loads one ready provider, reads its peak memory, and drains
// it gracefully.
func (r *gethashRun) measure(e *env, batch bool, sz gethashSize, measure time.Duration) (*serverStats, loadOut, float64, error) {
	lo := r.load(e, batch, sz.warm+measure, sbclient.HTTPTransport{BaseURL: r.prov.baseURL(), Client: r.client})
	if err := e.ctx.Err(); err != nil {
		return nil, lo, 0, err
	}
	peak, err := r.prov.peakRSS()
	if err != nil {
		return nil, lo, 0, err
	}
	// A connection the client dialled but never used sits in StateNew
	// on the server, and http.Server.Shutdown waits up to five seconds
	// for it; closing the client's idle connections first keeps the
	// drain time the server's own.
	r.client.CloseIdleConnections()
	st, err := r.prov.stop()
	return st, lo, peak, err
}

// verifyServerStore holds the drained store to the client's count: what
// the server received is what it persisted, nothing was dropped, and a
// read-only reopen replays exactly that many probes. It returns the
// store's exact bytes per probe.
func verifyServerStore(dir string, st *serverStats, okOps uint64, out *phaseOut) (float64, error) {
	if !st.hasStore {
		out.problemf("the server reported no probe store")
		return 0, nil
	}
	if st.persisted != okOps || st.storeDropped != 0 || st.writeErrors != 0 {
		out.problemf("store accounting: persisted=%d dropped=%d writeErrors=%d, want %d persisted", st.persisted, st.storeDropped, st.writeErrors, okOps)
	}
	replayed, bytesPer, err := replayCount(dir)
	if err != nil {
		return 0, err
	}
	if replayed != st.persisted {
		out.problemf("read-only reopen replayed %d probes, the server persisted %d", replayed, st.persisted)
	}
	return bytesPer, nil
}

// replayCount reopens a sealed store read-only, counts what Replay
// delivers, and returns the exact on-disk bytes per record.
func replayCount(dir string) (replayed uint64, bytesPerProbe float64, err error) {
	ro, err := probestore.Open(dir, probestore.ReadOnly())
	if err != nil {
		return 0, 0, err
	}
	err = ro.Replay(func(sbserver.Probe) error {
		replayed++
		return nil
	})
	var bytes int64
	var records int
	for _, s := range ro.Segments() {
		bytes += s.Bytes
		records += s.Records
	}
	if err = errors.Join(err, ro.Close()); err != nil {
		return 0, 0, err
	}
	if records == 0 {
		return replayed, 0, errors.New("the store holds no records")
	}
	return replayed, float64(bytes) / float64(records), nil
}
