package sbserver

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/prefixtable"
	"sbprivacy/internal/wire"
)

// IndexBenchConfig configures one serving-index benchmark run: the
// server's flat open-addressing index and the map-backed reference
// model are measured on identical deterministic workloads at each
// size.
type IndexBenchConfig struct {
	// Sizes lists the prefix counts to load, e.g. 1e5/1e6/1e7 for the
	// paper-scale trajectory. Must be positive and strictly ascending.
	Sizes []int
	// Lookups is the number of measured lookups per path (hit and
	// miss) per design; 0 selects a default of 1<<20.
	Lookups int
	// Seed drives the deterministic workload generator.
	Seed int64
}

// DefaultIndexBenchLookups is the lookup count used when
// IndexBenchConfig.Lookups is zero.
const DefaultIndexBenchLookups = 1 << 20

// indexWorkload is one size's deterministic workload, shared verbatim
// by both designs so the comparison isolates the index structure.
type indexWorkload struct {
	list     string
	prefixes []hashx.Prefix
	digests  []hashx.Digest
	hitIdx   []int32        // random indices into prefixes, len = Lookups
	misses   []hashx.Prefix // prefixes guaranteed absent, len = Lookups
	remove   []int32        // distinct indices to remove, shuffled
}

// genIndexWorkload builds the workload for n prefixes from the seed.
func genIndexWorkload(n, lookups int, seed int64) *indexWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := &indexWorkload{
		list:     "goog-malware-shavar",
		prefixes: make([]hashx.Prefix, n),
		digests:  make([]hashx.Digest, n),
		hitIdx:   make([]int32, lookups),
		misses:   make([]hashx.Prefix, lookups),
	}
	present := make(map[uint32]struct{}, n)
	for i := 0; i < n; i++ {
		var d hashx.Digest
		if _, err := rng.Read(d[:]); err != nil {
			panic(err) // math/rand.Read cannot fail
		}
		w.digests[i] = d
		w.prefixes[i] = d.Prefix()
		present[uint32(d.Prefix())] = struct{}{}
	}
	for i := range w.hitIdx {
		w.hitIdx[i] = int32(rng.Intn(n))
	}
	for i := range w.misses {
		for {
			p := rng.Uint32()
			if _, hit := present[p]; !hit {
				w.misses[i] = hashx.Prefix(p)
				break
			}
		}
	}
	removeCount := n / 2
	if removeCount > lookups {
		removeCount = lookups
	}
	if removeCount == 0 {
		removeCount = 1
	}
	w.remove = make([]int32, 0, removeCount)
	perm := rng.Perm(n)
	for _, i := range perm[:removeCount] {
		w.remove = append(w.remove, int32(i))
	}
	return w
}

// RunIndexBench measures both serving-index designs on identical
// workloads at every configured size and returns the machine-readable
// report (schema sbprivacy/prefixtable/v1). The caller decides whether
// to write it as BENCH_prefixtable.json.
func RunIndexBench(cfg IndexBenchConfig) (*prefixtable.Report, error) {
	if len(cfg.Sizes) == 0 {
		return nil, errors.New("sbserver: index bench needs at least one size")
	}
	if cfg.Lookups <= 0 {
		cfg.Lookups = DefaultIndexBenchLookups
	}
	sizes := append([]int(nil), cfg.Sizes...)
	sort.Ints(sizes)
	for i, n := range sizes {
		if n <= 0 {
			return nil, fmt.Errorf("sbserver: index bench size %d must be positive", n)
		}
		if i > 0 && n == sizes[i-1] {
			return nil, fmt.Errorf("sbserver: duplicate index bench size %d", n)
		}
	}
	rep := &prefixtable.Report{
		Schema: prefixtable.ReportSchema,
		Config: prefixtable.ReportConfig{Sizes: sizes, Lookups: cfg.Lookups, Seed: cfg.Seed},
	}
	for _, n := range sizes {
		w := genIndexWorkload(n, cfg.Lookups, cfg.Seed)
		oldRes := measureIndexDesign("striped-map", newStripedIndex(), w)
		newRes := measureIndexDesign("prefixtable", newFlatIndex(), w)
		rep.Results = append(rep.Results, prefixtable.SizeResult{
			Prefixes:    n,
			Old:         oldRes,
			New:         newRes,
			SpeedupHit:  oldRes.LookupHitNsPerOp / newRes.LookupHitNsPerOp,
			SpeedupMiss: oldRes.LookupMissNsPerOp / newRes.LookupMissNsPerOp,
		})
	}
	if err := rep.Validate(); err != nil {
		return nil, fmt.Errorf("sbserver: index bench produced an invalid report: %w", err)
	}
	return rep, nil
}

// measureIndexDesign loads one index design with the workload and
// measures build, lookup (hit and miss, with allocation accounting)
// and remove costs.
func measureIndexDesign(name string, idx servingIndex, w *indexWorkload) prefixtable.DesignResult {
	res := prefixtable.DesignResult{Design: name}
	var ms runtime.MemStats

	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapBefore := ms.HeapAlloc

	start := time.Now()
	for i, p := range w.prefixes {
		idx.add(p, indexEntry{rank: 0, list: w.list, digest: w.digests[i]})
	}
	res.BuildNsPerOp = perOp(time.Since(start), len(w.prefixes))

	runtime.GC()
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > heapBefore {
		res.Bytes = int64(ms.HeapAlloc - heapBefore)
	} else {
		res.Bytes = 1 // the heap shrank around us; record presence, not precision
	}

	// Warm pass: grow dst to cover the longest chain (and fault the
	// index in) so the measured loops see steady state for both
	// designs.
	dst := make([]wire.FullHashEntry, 0, 64)
	for _, i := range w.hitIdx[:min(len(w.hitIdx), 1<<16)] {
		dst = idx.lookup(w.prefixes[i], dst[:0])
	}

	// MemStats.Mallocs is process-wide: a window of lookups also counts
	// whatever any other goroutine (the runtime's own included) allocated
	// meanwhile. The hits are measured in a few windows and the lookups'
	// own count is the smallest rate seen — a design that allocates per
	// lookup shows it in every window, a stray allocation in one.
	sink := 0
	const allocWindows = 4
	var hitTime time.Duration
	res.LookupAllocsPerOp = math.Inf(1)
	for k := 0; k < allocWindows; k++ {
		window := w.hitIdx[k*len(w.hitIdx)/allocWindows : (k+1)*len(w.hitIdx)/allocWindows]
		if len(window) == 0 {
			continue
		}
		runtime.ReadMemStats(&ms)
		mallocsBefore := ms.Mallocs
		start = time.Now()
		for _, i := range window {
			dst = idx.lookup(w.prefixes[i], dst[:0])
			sink += len(dst)
		}
		hitTime += time.Since(start)
		runtime.ReadMemStats(&ms)
		res.LookupAllocsPerOp = min(res.LookupAllocsPerOp, float64(ms.Mallocs-mallocsBefore)/float64(len(window)))
	}
	res.LookupHitNsPerOp = perOp(hitTime, len(w.hitIdx))

	start = time.Now()
	for _, p := range w.misses {
		dst = idx.lookup(p, dst[:0])
		sink += len(dst)
	}
	res.LookupMissNsPerOp = perOp(time.Since(start), len(w.misses))

	start = time.Now()
	for _, i := range w.remove {
		idx.remove(w.prefixes[i], 0, w.digests[i])
	}
	res.RemoveNsPerOp = perOp(time.Since(start), len(w.remove))

	runtime.KeepAlive(sink)
	return res
}

// perOp converts a loop duration into ns/op, never returning a value
// the report schema would reject (sub-nanosecond loops round up).
func perOp(d time.Duration, ops int) float64 {
	ns := float64(d.Nanoseconds()) / float64(ops)
	if ns <= 0 {
		return 0.01
	}
	return ns
}

// servingIndex is the seam the A/B harness (RunIndexBench,
// FuzzIndexDifferential) drives both designs through. The Server holds
// a concrete *flatIndex and does not use it.
type servingIndex interface {
	add(p hashx.Prefix, e indexEntry)
	remove(p hashx.Prefix, rank uint32, d hashx.Digest)
	lookup(p hashx.Prefix, dst []wire.FullHashEntry) []wire.FullHashEntry
}

var (
	_ servingIndex = (*flatIndex)(nil)
	_ servingIndex = (*stripedIndex)(nil)
)

// indexShard is one stripe of the map model: an independently locked
// slice of the global prefix -> digests mapping.
type indexShard struct {
	mu sync.RWMutex
	m  map[hashx.Prefix][]indexEntry
}

// stripedIndex is the reference model flatIndex is measured and
// fuzz-compared against: Go maps striped by prefix low bits, with the
// same stripe count so the two designs differ only in the per-stripe
// structure. It is the "old design" column of BENCH_prefixtable.json;
// no Server can be built on it.
type stripedIndex struct {
	shards [numShards]indexShard
}

func newStripedIndex() *stripedIndex {
	x := &stripedIndex{}
	for i := range x.shards {
		x.shards[i].m = make(map[hashx.Prefix][]indexEntry)
	}
	return x
}

//sbcheck:hotpath
func (x *stripedIndex) shard(p hashx.Prefix) *indexShard {
	return &x.shards[uint32(p)&(numShards-1)]
}

// add inserts an entry for p, keeping the per-prefix slice grouped by
// ascending list rank (insertion order within a list is preserved).
func (x *stripedIndex) add(p hashx.Prefix, e indexEntry) {
	sh := x.shard(p)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	entries := sh.m[p]
	i := len(entries)
	for i > 0 && entries[i-1].rank > e.rank {
		i--
	}
	entries = append(entries, indexEntry{})
	copy(entries[i+1:], entries[i:])
	entries[i] = e
	sh.m[p] = entries
}

// remove deletes the entry for (rank, digest) under p, if present.
func (x *stripedIndex) remove(p hashx.Prefix, rank uint32, d hashx.Digest) {
	sh := x.shard(p)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	entries := sh.m[p]
	for i, e := range entries {
		if e.rank == rank && e.digest == d {
			entries = append(entries[:i], entries[i+1:]...)
			break
		}
	}
	if len(entries) == 0 {
		delete(sh.m, p)
	} else {
		sh.m[p] = entries
	}
}

// lookup appends the full-hash entries matching p to dst and returns the
// extended slice. With a dst whose capacity covers the matches, a lookup
// performs zero allocations (TestShardLookupAllocs gates this).
//
//sbcheck:hotpath
func (x *stripedIndex) lookup(p hashx.Prefix, dst []wire.FullHashEntry) []wire.FullHashEntry {
	sh := x.shard(p)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, e := range sh.m[p] {
		dst = append(dst, wire.FullHashEntry{List: e.list, Digest: e.digest})
	}
	return dst
}
