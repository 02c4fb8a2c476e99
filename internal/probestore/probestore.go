// Package probestore implements a persistent, segmented, append-only
// store for the probes a Safe Browsing provider observes — the durable
// retention layer of the paper's threat model. The in-memory probe log
// of internal/sbserver bounds how long the provider can "remember"; this
// store removes that bound: probes are buffered in one write buffer and
// spilled to size-bounded on-disk segment files in the length-prefixed
// wire encoding of wire.ProbeRecord, so the analysis machinery can
// replay arbitrarily old history long after the serving process exited.
//
// The Store implements sbserver.ProbeSink and is subscribed to a server
// like any other sink:
//
//	store, _ := probestore.Open(dir)
//	server.Subscribe(store)
//	...
//	server.Close() // drain the probe pipeline
//	store.Close()  // spill and sync the tail
//
// Durability model: records reach disk when the write buffer fills
// (WithSpillThreshold), on Flush, and on Close. A crash loses at most
// the buffered tail — one buffer, 64 KiB by default; a crash mid-write
// leaves a torn final record, which Open detects and truncates, so
// every record before the tear survives. Segment files are immutable
// once rotated, which makes retention (WithRetainSegments /
// WithRetainBytes) a whole-file delete of the oldest segment — no
// compaction, no rewrite.
//
// Sealed segments carry an index sidecar (seg-NNNNNNNN.pidx, the
// wire.MsgProbeIndex format): the segment's record count, byte extent,
// and a Bloom filter of its client cookies. Open loads sidecars instead
// of scanning segment files, and ClientHistory consults the per-segment
// filters to look only inside segments that may contain the queried
// cookie. The first query that has to look inside a segment scans it
// once into a client index (cookie → record offsets) and keeps the read
// handle it scanned through; every later query of that segment is a map
// lookup and one pread per matching record, with no file open at all —
// the "history of client X" query costs one scan per bloom hit the
// first time, not one scan per live segment. Sidecars are advisory: a
// missing, torn or stale sidecar (and a live writer's still-growing
// tail segment, which never has one) falls back to a full scan of that
// segment.
//
// Order: the store has one write buffer and one lock, and encoding a
// probe into the buffer, spilling it, Flush and Close are each one
// critical section of that lock. The order of records on disk — what
// Replay, Follow and ClientHistory return — is therefore the order in
// which the Observe calls returned. Each client's history is FIFO, the
// property the tracking and temporal correlation machinery depends on,
// and a single-producer feed (workload.Campaign.Run, whose probes carry
// increasing timestamps) replays in exactly its schedule order, so a
// windowed stream analysis of the store drops nothing as late.
// Concurrent producers interleave in the order they won the lock.
//
// Memory model: the probes themselves live on disk, and nobody indexes
// a record by writing it. A writer keeps the write buffer (the spill
// threshold; while the disk refuses spills, a backlog of up to 16 times
// that, at least 1 MiB), the exact cookie set of the one segment it is
// appending to — what that segment's Bloom filter is sealed from, and
// dropped when it is — and a Bloom filter of about 10 bits per cookie
// for each sealed segment: nothing per record, however long it runs.
// Indexes belong to queries. A Clients or ClientHistory call that has
// to look inside a segment — whether the segment was adopted from a
// sidecar, scanned at Open, written by this process or is the still-
// growing tail — builds that segment's index by scanning the file once:
// 16 bytes per record in one flat array, one map entry per cookie, and
// one open file descriptor, all three living exactly as long as the
// segment does in this store (until retention evicts it, or Close). An
// index remembers the byte extent it covers; a query that finds the
// segment has grown past it scans only the new tail. A store that is
// never queried — a serving process, a pure Replay or Follow — holds no
// index and no read handle at all.
package probestore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/wire"
)

// Defaults for Open.
const (
	// DefaultMaxSegmentBytes is the rotation point for segment files.
	DefaultMaxSegmentBytes = 4 << 20
	// DefaultSpillThreshold is the write buffer size that triggers a
	// spill to the current segment.
	DefaultSpillThreshold = 64 << 10
)

// sidecarFPRate is the target false-positive rate of a segment's
// client-cookie Bloom filter: 1% of unrelated history queries pay one
// wasted segment scan, in exchange for ~10 bits of sidecar per cookie.
const sidecarFPRate = 0.01

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("probestore: store is closed")

// ErrReadOnly reports a mutating operation on a read-only store.
var ErrReadOnly = errors.New("probestore: store is read-only")

// ErrLocked reports a writable Open of a directory another live
// process already writes to. Two writers sharing a tail segment would
// corrupt each other's offsets; the second must fail loudly instead.
// Read-only opens are not blocked — analyzing a live store is allowed.
var ErrLocked = errors.New("probestore: directory locked by another writer")

// lockFileName is the advisory single-writer lock in a store directory.
const lockFileName = "LOCK"

// Stats reports the store's counters.
type Stats struct {
	// Received counts probes handed to Observe.
	Received uint64
	// Persisted counts records written to segment files.
	Persisted uint64
	// Segments is the number of live segment files.
	Segments int
	// LiveBytes is the total size of live segment files.
	LiveBytes int64
	// EvictedSegments counts segment files deleted by retention.
	EvictedSegments uint64
	// EvictedRecords counts records lost to retention.
	EvictedRecords uint64
	// WriteErrors counts error events while encoding, spilling, syncing
	// or pruning — not lost probes: records whose spill failed stay
	// buffered and may be persisted by a later retry, and only probes
	// rejected outright (oversized, or observed after Close) are truly
	// dropped. The first error since the last Flush is also returned by
	// Flush and Close.
	WriteErrors uint64
	// Dropped counts records discarded because the write buffer hit its
	// failure cap while spills kept failing — the store's last-resort
	// shedding during a disk outage, bounding memory instead of growing
	// toward OOM.
	Dropped uint64
	// TruncatedBytes counts torn-tail bytes discarded during recovery.
	TruncatedBytes int64
	// SegmentOpens counts segment files opened by client queries: one
	// per segment index built (an evicted segment's failed attempt
	// included), none for a query served from an index that exists.
	// With bloom sidecars this scales with the number of segments that
	// may contain the queried clients, not with the live segment count —
	// the property BenchmarkClientHistorySparse measures.
	SegmentOpens uint64
	// BloomSkips counts segments a client-history query skipped without
	// reading because the segment's cookie filter (or exact client set,
	// or index) ruled the client out.
	BloomSkips uint64
}

// Option configures Open.
type Option func(*config)

type config struct {
	maxSegmentBytes int64
	spillThreshold  int
	failureCap      int
	retainSegments  int
	retainBytes     int64
	readOnly        bool
}

// WithMaxSegmentBytes sets the segment rotation size. A spill rotates
// to a fresh segment when the write buffer would take the current one
// past n bytes, then writes the whole buffer there, so n is a soft
// bound: a segment can exceed it by up to the spill threshold (see
// WithSpillThreshold) plus one record, or by a backlog of failed spills.
// Non-positive values fall back to DefaultMaxSegmentBytes.
func WithMaxSegmentBytes(n int64) Option {
	return func(c *config) { c.maxSegmentBytes = n }
}

// WithSpillThreshold sets the write buffer size, in bytes, that
// triggers a spill to disk. Smaller values tighten the crash-loss
// window; larger values batch writes.
func WithSpillThreshold(n int) Option {
	return func(c *config) { c.spillThreshold = n }
}

// WithRetainSegments bounds the store to the newest n segment files;
// older segments are deleted at rotation and at Open. Zero keeps
// everything — disk use then grows with traffic (see the package
// comment's memory model).
func WithRetainSegments(n int) Option {
	return func(c *config) { c.retainSegments = n }
}

// WithRetainBytes bounds the total on-disk size: at rotation, the
// oldest segments are deleted until the live files fit in n bytes.
// Zero keeps everything.
func WithRetainBytes(n int64) Option {
	return func(c *config) { c.retainBytes = n }
}

// ReadOnly opens the store for replay only: the directory must exist,
// nothing is created, truncated or deleted, and Observe is rejected. A
// torn tail is skipped instead of repaired. This is the mode for
// analyzing a log directory offline (cmd/sbanalyze -probe-store) or
// tailing a live one (Follow, cmd/sbanalyze -follow).
func ReadOnly() Option {
	return func(c *config) { c.readOnly = true }
}

// recordRef locates one persisted record inside its segment: byte
// offset of its frame and frame length.
type recordRef struct {
	off int64
	n   int32
}

// Store is a persistent probe log rooted at one directory. It is safe
// for concurrent use; Observe may be called from many goroutines (the
// probe pipelines of several servers, or direct producers).
type Store struct {
	dir string
	cfg config

	// lock holds the directory's single-writer flock (nil read-only).
	lock *os.File

	// mu guards the writer state below and every segmentInfo's mutable
	// fields (idx and what it points to, clients, missing, bytes,
	// records). It is the store's only lock: Observe, spill, Flush and
	// Close are each one critical section, so the on-disk order is the
	// order in which Observe calls returned. Release it with unlock.
	mu sync.Mutex
	// buf holds the pending encoded records not yet spilled.
	buf      []byte
	pending  int
	cur      *os.File
	curID    uint64
	curSize  int64
	segments []*segmentInfo // live segments in id order, including current
	closed   bool
	writeErr error
	// detached collects the index read handles of segments that left the
	// store while mu was held (retention, Close); unlock closes them.
	detached []*os.File

	received        uint64
	dropped         uint64
	persisted       uint64
	evictedSegments uint64
	evictedRecords  uint64
	writeErrors     uint64
	truncatedBytes  int64
	segmentOpens    atomic.Uint64
	bloomSkips      atomic.Uint64
}

var _ sbserver.ProbeSink = (*Store)(nil)

// Open opens (or creates) a probe store rooted at dir, recovering from
// a previous run. Sealed segments with a valid index sidecar are
// adopted without reading their records; the rest are scanned, and a
// torn final record — the signature of a crash mid-write — is truncated
// away so the file ends at the last complete record.
func Open(dir string, opts ...Option) (*Store, error) {
	cfg := config{
		maxSegmentBytes: DefaultMaxSegmentBytes,
		spillThreshold:  DefaultSpillThreshold,
	}
	for _, o := range opts {
		o(&cfg)
	}
	// Non-positive sizes (zeroed structs, unvalidated flags) fall back
	// to the defaults rather than degrading to a rotation-per-spill.
	if cfg.maxSegmentBytes <= 0 {
		cfg.maxSegmentBytes = DefaultMaxSegmentBytes
	}
	if cfg.spillThreshold <= 0 {
		cfg.spillThreshold = DefaultSpillThreshold
	}
	// If the disk stops accepting spills, the buffer retains up to
	// this much encoded backlog before shedding — bounded memory even
	// through an outage.
	cfg.failureCap = 16 * cfg.spillThreshold
	if cfg.failureCap < 1<<20 {
		cfg.failureCap = 1 << 20
	}
	s := &Store{dir: dir, cfg: cfg}
	if !cfg.readOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("probestore: %w", err)
		}
		lock, err := os.OpenFile(filepath.Join(dir, lockFileName), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("probestore: %w", err)
		}
		if err := flockFile(lock); err != nil {
			lock.Close() //nolint:errcheck // already failing
			return nil, fmt.Errorf("%w: %s", ErrLocked, dir)
		}
		s.lock = lock
	}
	if err := s.recover(); err != nil {
		s.releaseLock()
		return nil, err
	}
	return s, nil
}

// releaseLock drops the single-writer lock, if held.
func (s *Store) releaseLock() {
	if s.lock == nil {
		return
	}
	funlockFile(s.lock) //nolint:errcheck // released on close anyway
	s.lock.Close()      //nolint:errcheck // lock handle
	s.lock = nil
}

// Observe implements sbserver.ProbeSink: the probe is encoded into the
// write buffer and the buffer is spilled to the current segment once it
// reaches the spill threshold. Encoding or disk errors cannot be
// returned here (the sink interface has no error path); they increment
// Stats.WriteErrors and surface from the next Flush or Close.
//
// Probes exceeding the wire-format limits cannot arrive here from a
// compliant server: the HTTP decoder enforces the limits, and
// sbserver.FullHashes rejects oversized LocalTransport requests before
// any sink observes them. Should one arrive anyway, the encoder refuses
// it and the loss is counted as a write error.
func (s *Store) Observe(p sbserver.Probe) {
	rec := wire.ProbeRecord{
		UnixNano: p.Time.UnixNano(),
		ClientID: p.ClientID,
		Prefixes: p.Prefixes,
	}
	s.mu.Lock()
	defer s.unlock()
	s.received++
	// closed is read under the lock Close holds from its final spill to
	// setting it, so a probe racing Close is either in that spill (and
	// persisted) or rejected here — never buffered and forgotten.
	switch {
	case s.cfg.readOnly:
		s.noteErrLocked(ErrReadOnly)
		return
	case s.closed:
		s.noteErrLocked(ErrClosed)
		return
	}
	buf, err := wire.AppendProbeRecord(s.buf, &rec)
	if err != nil {
		s.noteErrLocked(err)
		return
	}
	s.buf = buf
	s.pending++
	if len(s.buf) >= s.cfg.spillThreshold {
		//sbcheck:ignore lockscope single-writer store contract: buffering and spilling in one critical section is what makes disk order equal arrival order
		if err := s.spillLocked(); err != nil {
			s.noteErrLocked(err)
			if len(s.buf) >= s.cfg.failureCap {
				// Spills keep failing and the backlog hit the cap:
				// shed the buffer rather than grow toward OOM. The
				// loss is visible in Stats.Dropped.
				s.dropPendingLocked()
			}
		}
	}
}

// noteErrLocked counts a write error for Stats and keeps the first one
// since the last Flush for Flush and Close to return. The caller holds
// s.mu.
func (s *Store) noteErrLocked(err error) {
	s.writeErrors++
	if s.writeErr == nil {
		s.writeErr = err
	}
}

// dropPendingLocked discards the buffered records and counts them in
// Stats.Dropped. The caller holds s.mu.
func (s *Store) dropPendingLocked() {
	s.dropped += uint64(s.pending)
	s.buf = s.buf[:0]
	s.pending = 0
}

// unlock releases s.mu and then closes the index read handles detached
// while it was held: closing a file is I/O, and no reader's close has
// any business in the writer's critical section.
func (s *Store) unlock() {
	detached := s.detached
	s.detached = nil
	s.mu.Unlock()
	for _, f := range detached {
		f.Close() //nolint:errcheck // read-side close
	}
}

// spillLocked appends the write buffer to the current segment and adds
// the spilled records' cookies to that segment's exact client set — at
// spill time, once rotation has decided which segment the records land
// in; a cookie registered when it was observed could end up in the set
// of the segment before the one that holds it, and the sealed filter
// would then deny it. On a closed store it does nothing: what Close
// could not write stays unwritten. The caller holds s.mu.
func (s *Store) spillLocked() error {
	if len(s.buf) == 0 || s.closed {
		return nil
	}
	if s.cur == nil || s.curSize+int64(len(s.buf)) > s.cfg.maxSegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := s.cur.Write(s.buf); err != nil {
		// A short write (disk full, I/O error) may have left a torn
		// fragment on disk past curSize. Roll the file back to the last
		// record boundary so the segment stays scannable; the buffered
		// records stay in the buffer for a retry.
		if terr := s.cur.Truncate(s.curSize); terr != nil {
			// The fragment is stuck. Abandon the file — appending after
			// it would put the tear mid-file, where recovery treats it
			// as corruption; left as a tail tear it stays recoverable.
			// The next spill rotates to a fresh segment (rotateLocked
			// with cur == nil skips the poisoned file's sync, so a
			// sticky EIO there can't wedge us). The buffered records
			// must be dropped, not retried: complete records inside the
			// fragment may have reached disk, and retrying them into
			// the next segment would make Replay return duplicates —
			// at-most-once beats maybe-twice for report fidelity.
			s.cur.Close() //nolint:errcheck // abandoning a failing file
			s.cur = nil
			s.dropPendingLocked()
		}
		return fmt.Errorf("probestore: write segment %d: %w", s.curID, err)
	}
	s.curSize += int64(len(s.buf))
	seg := s.segments[len(s.segments)-1]
	seg.bytes = s.curSize
	seg.records += s.pending
	s.persisted += uint64(s.pending)
	err := seg.addClients(s.buf)
	s.buf = s.buf[:0]
	s.pending = 0
	return err
}

// rotateLocked seals the current segment (if any) — sync, close, and
// write its index sidecar — opens the next one, and then applies
// retention: after the append, so the live set (current segment
// included) respects the limits at rest, not just between rotations.
// The caller holds s.mu.
func (s *Store) rotateLocked() error {
	if s.cur != nil {
		if err := s.cur.Sync(); err != nil {
			return fmt.Errorf("probestore: sync segment %d: %w", s.curID, err)
		}
		if err := s.cur.Close(); err != nil {
			return fmt.Errorf("probestore: close segment %d: %w", s.curID, err)
		}
		s.cur = nil
		// The sidecar is an optimization, not a durability promise: a
		// failed write is noted and the sealed segment simply costs a
		// scan on the next Open.
		if err := s.writeSidecarLocked(s.segments[len(s.segments)-1]); err != nil {
			s.noteErrLocked(err)
		}
	}
	id := uint64(1)
	if n := len(s.segments); n > 0 {
		id = s.segments[n-1].id + 1
	}
	// O_APPEND so a post-error Truncate rollback repositions writes at
	// the new EOF instead of leaving a hole at the old offset.
	f, err := os.OpenFile(segmentPath(s.dir, id), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("probestore: create segment %d: %w", id, err)
	}
	if err := wire.WriteSegmentHeader(f); err != nil {
		f.Close() //nolint:errcheck // already failing
		// Remove the untracked file: its id is not in s.segments, so
		// the next rotation would pick the same id and trip O_EXCL
		// forever if the file stayed behind.
		os.Remove(segmentPath(s.dir, id)) //nolint:errcheck // best effort
		return fmt.Errorf("probestore: segment %d header: %w", id, err)
	}
	s.cur = f
	s.curID = id
	s.curSize = wire.SegmentHeaderSize
	s.segments = append(s.segments, &segmentInfo{
		id:      id,
		bytes:   s.curSize,
		clients: make(map[string]bool),
	})
	s.pruneLocked()
	return nil
}

// pruneLocked applies the retention limits by deleting the oldest
// closed segments (and their sidecars). The current (still-open)
// segment is never deleted. The caller holds s.mu.
func (s *Store) pruneLocked() {
	if s.cfg.retainSegments <= 0 && s.cfg.retainBytes <= 0 {
		return
	}
	over := func() bool {
		if len(s.segments) <= 1 {
			return false // never prune down to nothing mid-rotation
		}
		if s.cfg.retainSegments > 0 && len(s.segments) > s.cfg.retainSegments {
			return true
		}
		if s.cfg.retainBytes > 0 {
			var total int64
			for _, seg := range s.segments {
				total += seg.bytes
			}
			return total > s.cfg.retainBytes
		}
		return false
	}
	for over() {
		oldest := s.segments[0]
		if err := os.Remove(segmentPath(s.dir, oldest.id)); err != nil && !os.IsNotExist(err) {
			s.noteErrLocked(fmt.Errorf("probestore: prune segment %d: %w", oldest.id, err))
			return
		}
		os.Remove(sidecarPath(s.dir, oldest.id)) //nolint:errcheck // best effort; orphans are tidied at Open
		s.segments = s.segments[1:]
		s.evictedSegments++
		s.evictedRecords += uint64(oldest.records)
		// A query that snapshotted the segment list before this point
		// skips the segment from here on.
		oldest.missing = true
		s.detachIndexLocked(oldest)
	}
}

// spill writes the buffered probes to the current segment and returns
// the error of this spill (not historical ones) — the visibility
// barrier the read APIs need, without Flush's fsync or its
// accumulated-error reporting.
func (s *Store) spill() error {
	s.mu.Lock()
	defer s.unlock()
	err := s.spillLocked() //sbcheck:ignore lockscope single-writer store contract: the visibility barrier is a spill, and a spill is a segment append under s.mu
	if err != nil {
		s.noteErrLocked(err)
	}
	return err
}

// Flush spills the write buffer to disk and syncs the current segment,
// so all probes observed before the call are durable. It returns the
// first write error since the previous Flush, if any — including on a
// read-only store, where the only possible write errors are the
// misdirected Observes noted as ErrReadOnly (a read-only store has
// nothing to spill, but swallowing its noted errors would break the
// "first error since the last Flush" contract).
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.unlock()
	return s.flushLocked() //sbcheck:ignore lockscope single-writer store contract: Flush spills and syncs under s.mu so no Observe can slip between the sync and the error harvest
}

// flushLocked is Flush for a caller that holds s.mu.
func (s *Store) flushLocked() error {
	if err := s.spillLocked(); err != nil {
		s.noteErrLocked(err)
	}
	if s.cur != nil {
		if err := s.cur.Sync(); err != nil {
			s.noteErrLocked(fmt.Errorf("probestore: sync segment %d: %w", s.curID, err))
		}
	}
	err := s.writeErr
	s.writeErr = nil
	return err
}

// Close flushes and closes the store, sealing the final segment with
// its index sidecar and dropping every segment index with its read
// handle. Probes observed after Close are counted as write errors and
// dropped, Clients and ClientHistory return ErrClosed. Closing a closed
// store returns ErrClosed and does nothing else.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.unlock()
	if s.closed {
		return ErrClosed
	}
	//sbcheck:ignore lockscope single-writer store contract: the final flush and setting s.closed are one critical section, so a racing Observe is persisted or rejected
	err := s.flushLocked()
	s.closed = true
	if s.cur != nil {
		//sbcheck:ignore lockscope single-writer store contract: sealing the final segment must be atomic with s.closed under s.mu
		if cerr := s.cur.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("probestore: close segment %d: %w", s.curID, cerr)
		}
		s.cur = nil
		// Seal the tail so a later read-only Open scans nothing. A
		// future writable Open that reopens this segment for appending
		// deletes the sidecar again.
		//sbcheck:ignore lockscope single-writer store contract: the sidecar seal races a concurrent writable Open unless written under s.mu
		if serr := s.writeSidecarLocked(s.segments[len(s.segments)-1]); serr != nil {
			s.writeErrors++
			if err == nil {
				err = serr
			}
		}
	}
	for _, seg := range s.segments {
		s.detachIndexLocked(seg)
	}
	s.releaseLock() //sbcheck:ignore lockscope single-writer store contract: the dir lock must drop before s.mu releases or a racing Open could double-own the store
	return err
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Received:        s.received,
		Persisted:       s.persisted,
		Segments:        len(s.segments),
		EvictedSegments: s.evictedSegments,
		EvictedRecords:  s.evictedRecords,
		WriteErrors:     s.writeErrors,
		Dropped:         s.dropped,
		TruncatedBytes:  s.truncatedBytes,
		SegmentOpens:    s.segmentOpens.Load(),
		BloomSkips:      s.bloomSkips.Load(),
	}
	for _, seg := range s.segments {
		st.LiveBytes += seg.bytes
	}
	return st
}

// SegmentInfo describes one live segment file.
type SegmentInfo struct {
	// ID is the segment's monotonically increasing id.
	ID uint64
	// Path is the segment file's location.
	Path string
	// Bytes is the file size (header included).
	Bytes int64
	// Records is the number of complete records in the segment.
	Records int
	// HasSidecar reports whether the segment's metadata came from (or
	// has been written to) an index sidecar.
	HasSidecar bool
}

// Segments returns the live segments in id order (oldest first).
func (s *Store) Segments() []SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SegmentInfo, len(s.segments))
	for i, seg := range s.segments {
		out[i] = SegmentInfo{
			ID:         seg.id,
			Path:       segmentPath(s.dir, seg.id),
			Bytes:      seg.bytes,
			Records:    seg.records,
			HasSidecar: seg.filter != nil,
		}
	}
	return out
}

// querySegments is the start of every client query: on a writable store
// the buffered probes are spilled so they are visible (no fsync —
// visibility, not durability), then the live segments are snapshotted.
func (s *Store) querySegments() ([]*segmentInfo, error) {
	if !s.cfg.readOnly {
		if err := s.spill(); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	return append([]*segmentInfo(nil), s.segments...), nil
}

// Clients returns every client cookie with at least one persisted
// probe, sorted. On a writable store it spills buffered probes first.
// This is the expensive enumeration path: segments known only through a
// bloom sidecar must be scanned to list their cookies exactly (the
// filter cannot be enumerated), and the per-segment indexes built by
// those scans stay cached for later ClientHistory calls.
func (s *Store) Clients() ([]string, error) {
	segs, err := s.querySegments()
	if err != nil {
		return nil, err
	}
	set := make(map[string]bool)
	for _, seg := range segs {
		s.mu.Lock()
		exact := seg.missing || seg.clients != nil
		for c := range seg.clients {
			set[c] = true
		}
		want := seg.bytes
		s.mu.Unlock()
		if exact {
			continue
		}
		idx, err := s.lockIndex(seg, want)
		if err != nil {
			return nil, err
		}
		if idx != nil {
			for c := range idx.postings {
				set[c] = true
			}
		}
		s.mu.Unlock()
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out, nil
}

// mayContainLocked reports whether a client-history query must look
// inside the segment, consulting (in order of precision) an index that
// covers the segment, the exact client set, and the sidecar bloom.
// Unknown segments — no metadata at all — must be checked. The caller
// holds s.mu.
func (seg *segmentInfo) mayContainLocked(clientID string) bool {
	switch {
	case seg.missing:
		return false
	case seg.idx != nil && seg.idx.extent >= seg.bytes:
		return len(seg.idx.postings[clientID]) > 0
	case seg.clients != nil:
		return seg.clients[clientID]
	case seg.filter != nil:
		return seg.filter.Contains([]byte(clientID))
	default:
		return true
	}
}

// ClientHistory returns every persisted probe of one client cookie in
// arrival order — the provider's "history of client X" query. Segments
// whose bloom sidecar (or exact client set, or index) rules the cookie
// out are skipped without touching the file, so the cost scales with
// the segments that actually contain the client; only bloom false
// positives (~1%) pay a wasted scan, once. On a writable store it
// spills the write buffer first, and every probe observed before the
// call is in the answer.
func (s *Store) ClientHistory(clientID string) ([]sbserver.Probe, error) {
	segs, err := s.querySegments()
	if err != nil {
		return nil, err
	}
	var out []sbserver.Probe
	for _, seg := range segs {
		s.mu.Lock()
		may, want := seg.mayContainLocked(clientID), seg.bytes
		s.mu.Unlock()
		if !may {
			s.bloomSkips.Add(1)
			continue
		}
		idx, err := s.lockIndex(seg, want)
		if err != nil {
			return nil, err
		}
		if idx == nil {
			s.mu.Unlock()
			continue
		}
		refs, f := idx.postings[clientID], idx.f
		s.mu.Unlock()
		if len(refs) == 0 {
			continue
		}
		if out, err = s.readRefs(seg, f, clientID, refs, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readRefs reads the referenced records of one client through the
// segment index's read handle and appends their probes to out: one
// pread and one parse per record, checked to carry the queried cookie
// (an index that points at somebody else's record means the file
// changed under it), every probe sharing the caller's clientID string
// and taking its prefixes from one slab sized from the frame lengths.
// A handle closed under the read — retention evicted the segment, or
// the store was closed — is a skip or ErrClosed, not a read error.
func (s *Store) readRefs(seg *segmentInfo, f *os.File, clientID string, refs []recordRef, out []sbserver.Probe) ([]sbserver.Probe, error) {
	slabCap, longest := 0, 0
	for _, r := range refs {
		slabCap += int(r.n) / hashx.PrefixSize
		longest = max(longest, int(r.n))
	}
	slab := make([]hashx.Prefix, 0, slabCap)
	frame := make([]byte, longest)
	out = slices.Grow(out, len(refs))
	var fr wire.ProbeFrame
	for _, r := range refs {
		frame = frame[:r.n]
		if _, err := f.ReadAt(frame, r.off); err != nil {
			if errors.Is(err, os.ErrClosed) {
				s.mu.Lock()
				gone, closed := seg.missing, s.closed
				s.mu.Unlock()
				if gone {
					return out, nil
				}
				if closed {
					return nil, ErrClosed
				}
			}
			return nil, fmt.Errorf("probestore: read segment %d at %d: %w", seg.id, r.off, err)
		}
		if _, err := fr.Parse(frame); err != nil {
			return nil, fmt.Errorf("probestore: segment %d at %d: %w", seg.id, r.off, err)
		}
		if string(fr.ClientID) != clientID {
			return nil, fmt.Errorf("probestore: segment %d at %d: record of client %q where the index has %q", seg.id, r.off, fr.ClientID, clientID)
		}
		p := sbserver.Probe{Time: time.Unix(0, fr.UnixNano), ClientID: clientID}
		if fr.NumPrefixes() > 0 {
			start := len(slab)
			slab = fr.AppendPrefixes(slab)
			p.Prefixes = slab[start:len(slab):len(slab)]
		}
		out = append(out, p)
	}
	return out, nil
}
