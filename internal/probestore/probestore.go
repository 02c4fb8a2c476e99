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
// filters to open only segments that may contain the queried cookie —
// the "history of client X" query costs one file open per bloom hit,
// not one scan per live segment. Sidecars are advisory: a missing, torn
// or stale sidecar (and a live writer's still-growing tail segment,
// which never has one) falls back to a full scan of that segment.
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
// Memory model: the probes themselves live on disk. A writable store
// keeps the write buffer (the spill threshold; while the disk refuses
// spills, a backlog of up to 16 times that, at least 1 MiB) and roughly
// 24 bytes of bookkeeping per record of the segments it wrote in this
// run (pruned with retention); segments recovered from sidecars cost
// only their Bloom filter until a client query touches them, at which
// point that segment's index is built lazily and cached.
// A read-only store defers all indexing until the first Clients or
// ClientHistory call, so pure Replay streams with no per-record memory
// at all.
package probestore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

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
	// SegmentOpens counts segment files opened by client-history
	// queries. With bloom sidecars this scales with the number of
	// segments that may contain the client, not with the live segment
	// count — the property BenchmarkClientHistorySparse measures.
	SegmentOpens uint64
	// BloomSkips counts segments a client-history query skipped without
	// opening because the segment's cookie filter (or exact client set)
	// ruled the client out.
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

// WithMaxSegmentBytes sets the segment rotation size. Segments rotate
// before exceeding n bytes (a single record larger than n still fits:
// the segment then holds just that record). Non-positive values fall
// back to DefaultMaxSegmentBytes.
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

// pendingRec is the index metadata of one not-yet-spilled record.
type pendingRec struct {
	client string
	off    int
	n      int
}

// Store is a persistent probe log rooted at one directory. It is safe
// for concurrent use; Observe may be called from many goroutines (the
// probe pipeline's drainers).
type Store struct {
	dir string
	cfg config

	// lock holds the directory's single-writer flock (nil read-only).
	lock *os.File

	// mu guards the writer state below and every segmentInfo's mutable
	// fields (index, clients, missing, bytes, records). It is the
	// store's only lock: Observe, spill, Flush and Close are each one
	// critical section, so the on-disk order is the order in which
	// Observe calls returned.
	mu sync.Mutex
	// buf holds the encoded records not yet spilled; pending mirrors
	// them so a spill can extend the segment index with exact disk
	// offsets.
	buf      []byte
	pending  []pendingRec
	cur      *os.File
	curID    uint64
	curSize  int64
	segments []*segmentInfo // live segments in id order, including current
	closed   bool
	writeErr error

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

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

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
	defer s.mu.Unlock()
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
	off := len(s.buf)
	buf, err := wire.AppendProbeRecord(s.buf, &rec)
	if err != nil {
		s.noteErrLocked(err)
		return
	}
	s.buf = buf
	s.pending = append(s.pending, pendingRec{
		client: rec.ClientID, off: off, n: len(buf) - off,
	})
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
	s.dropped += uint64(len(s.pending))
	s.buf = s.buf[:0]
	s.pending = s.pending[:0]
}

// spillLocked appends the write buffer to the current segment and
// indexes the spilled records. On a closed store it does nothing: what
// Close could not write stays unwritten. The caller holds s.mu.
func (s *Store) spillLocked() error {
	if len(s.buf) == 0 || s.closed {
		return nil
	}
	if s.cur == nil || s.curSize+int64(len(s.buf)) > s.cfg.maxSegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	base := s.curSize
	if _, err := s.cur.Write(s.buf); err != nil {
		// A short write (disk full, I/O error) may have left a torn
		// fragment on disk past curSize. Roll the file back to the last
		// record boundary so the segment stays scannable and later
		// spills land at the offsets the index will claim; the buffered
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
	seg.records += len(s.pending)
	for _, pr := range s.pending {
		seg.index[pr.client] = append(seg.index[pr.client], recordRef{
			off: base + int64(pr.off), n: int32(pr.n),
		})
		seg.clients[pr.client] = true
	}
	s.persisted += uint64(len(s.pending))
	s.buf = s.buf[:0]
	s.pending = s.pending[:0]
	return nil
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
		index:   make(map[string][]recordRef),
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
	}
}

// spill writes the buffered probes to the current segment and returns
// the error of this spill (not historical ones) — the visibility
// barrier the read APIs need, without Flush's fsync or its
// accumulated-error reporting.
func (s *Store) spill() error {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	defer s.mu.Unlock()
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
// its index sidecar. Probes observed after Close are counted as write
// errors and dropped. Closing a closed store returns ErrClosed and does
// nothing else.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
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

// Clients returns every client cookie with at least one persisted
// probe, sorted. On a writable store it spills buffered probes first
// so they are visible (no fsync — visibility, not durability). This is
// the expensive enumeration path: segments known only through a bloom
// sidecar must be scanned to list their cookies exactly (the filter
// cannot be enumerated), and the per-segment indexes built by those
// scans stay cached for later ClientHistory calls.
func (s *Store) Clients() ([]string, error) {
	if !s.cfg.readOnly {
		if err := s.spill(); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	segs := append([]*segmentInfo(nil), s.segments...)
	s.mu.Unlock()
	set := make(map[string]bool)
	for _, seg := range segs {
		s.mu.Lock()
		var names []string
		known := false
		switch {
		case seg.missing:
			known = true
		case seg.clients != nil:
			known = true
			for c := range seg.clients {
				names = append(names, c)
			}
		case seg.index != nil:
			known = true
			for c := range seg.index {
				names = append(names, c)
			}
		}
		s.mu.Unlock()
		if !known {
			idx, err := s.buildSegIndex(seg)
			if err != nil {
				return nil, err
			}
			for c := range idx {
				names = append(names, c)
			}
		}
		for _, c := range names {
			set[c] = true
		}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out, nil
}

// segMayContain reports whether a client-history query must look inside
// the segment, consulting (in order of precision) the cached index, the
// exact client set, and the sidecar bloom. Unknown segments — no
// metadata at all — must be checked. The caller holds s.mu.
func (seg *segmentInfo) mayContainLocked(clientID string) bool {
	switch {
	case seg.missing:
		return false
	case seg.index != nil:
		return len(seg.index[clientID]) > 0
	case seg.clients != nil:
		return seg.clients[clientID]
	case seg.filter != nil:
		return seg.filter.Contains([]byte(clientID))
	default:
		return true
	}
}

// buildSegIndex scans one segment and installs its per-segment index
// (client → record refs), returning the installed map. The scan runs
// without holding s.mu; a segment evicted by a concurrently-running
// writer's retention is marked missing — cached, so a long history
// costs one failed open, not one per record — and yields a nil map.
func (s *Store) buildSegIndex(seg *segmentInfo) (map[string][]recordRef, error) {
	s.segmentOpens.Add(1)
	idx := make(map[string][]recordRef)
	records := 0
	_, _, err := walkSegment(segmentPath(s.dir, seg.id), seg.id,
		func(rec *wire.ProbeRecord, off int64, n int) error {
			idx[rec.ClientID] = append(idx[rec.ClientID], recordRef{off: off, n: int32(n)})
			records++
			return nil
		})
	s.mu.Lock()
	defer s.mu.Unlock()
	if errors.Is(err, fs.ErrNotExist) {
		seg.missing = true
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if seg.index == nil {
		seg.index = idx
		seg.records = records
	}
	return seg.index, nil
}

// ClientHistory returns every persisted probe of one client cookie in
// arrival order — the provider's "history of client X" query. Segments
// whose bloom sidecar (or exact client set) rules the cookie out are
// skipped without opening the file, so the cost scales with the
// segments that actually contain the client; only bloom false
// positives (~1%) pay a wasted scan. On a writable store it spills the
// write buffer first.
func (s *Store) ClientHistory(clientID string) ([]sbserver.Probe, error) {
	if !s.cfg.readOnly {
		if err := s.spill(); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	segs := append([]*segmentInfo(nil), s.segments...)
	s.mu.Unlock()
	var out []sbserver.Probe
	for _, seg := range segs {
		s.mu.Lock()
		may := seg.mayContainLocked(clientID)
		indexed := seg.index != nil
		var refs []recordRef
		if may && indexed {
			refs = append(refs, seg.index[clientID]...)
		}
		s.mu.Unlock()
		if !may {
			s.bloomSkips.Add(1)
			continue
		}
		if !indexed {
			idx, err := s.buildSegIndex(seg)
			if err != nil {
				return nil, err
			}
			refs = idx[clientID] // nil map (evicted segment) yields no refs
		}
		if len(refs) == 0 {
			continue
		}
		var err error
		out, err = s.readRefs(seg, refs, out)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readRefs reads the referenced records from one segment file and
// appends their probes to out. A segment evicted between indexing and
// reading is marked missing and skipped, matching Replay's semantics.
func (s *Store) readRefs(seg *segmentInfo, refs []recordRef, out []sbserver.Probe) ([]sbserver.Probe, error) {
	s.segmentOpens.Add(1)
	f, err := os.Open(segmentPath(s.dir, seg.id))
	if os.IsNotExist(err) {
		s.mu.Lock()
		seg.missing = true
		s.mu.Unlock()
		return out, nil
	}
	if err != nil {
		return nil, fmt.Errorf("probestore: open segment %d: %w", seg.id, err)
	}
	defer f.Close() //nolint:errcheck // read-side close
	buf := make([]byte, 0, 512)
	for _, r := range refs {
		if cap(buf) < int(r.n) {
			buf = make([]byte, r.n)
		}
		buf = buf[:r.n]
		if _, err := f.ReadAt(buf, r.off); err != nil {
			return nil, fmt.Errorf("probestore: read segment %d at %d: %w", seg.id, r.off, err)
		}
		rec, _, err := wire.DecodeProbeRecord(buf)
		if err != nil {
			return nil, fmt.Errorf("probestore: segment %d at %d: %w", seg.id, r.off, err)
		}
		out = append(out, recordProbe(rec))
	}
	return out, nil
}
