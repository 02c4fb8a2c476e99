package probestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"sbprivacy/internal/bloom"
	"sbprivacy/internal/hashx"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/wire"
)

// segmentExt is the segment file suffix; files are named
// seg-00000001.plog, seg-00000002.plog, ...
const segmentExt = ".plog"

// segmentInfo is the in-memory bookkeeping for one live segment.
type segmentInfo struct {
	id      uint64
	bytes   int64 // valid bytes, header included
	records int
	// clients is the exact set of cookies with records in this segment,
	// kept while nothing else can stand in for it: on the segment a
	// writer is appending to (the filter is sealed from it), on a
	// segment whose sidecar write failed, and on the segments a
	// read-only open had to scan. nil once filter exists.
	clients map[string]bool
	// filter is the sidecar's client-cookie Bloom filter (nil until the
	// segment is sealed, and on scanned segments without a sidecar).
	filter *bloom.Filter
	// idx is the segment's client index, built by the first query that
	// has to look inside the segment (lockIndex). nil until then.
	idx *segIndex
	// missing records that the segment is gone: this store's retention
	// evicted it, or a live writer's did while we were reading. Cached
	// so later queries skip the segment without retrying the open.
	missing bool
}

// segIndex is one segment's client index: where each cookie's records
// are in the file, and the handle to read them through. The handle is
// the one the builder scanned with and lives exactly as long as the
// index, so a query never reopens a segment.
type segIndex struct {
	f *os.File
	// extent is the byte extent of the file the postings cover, always a
	// record boundary. A query trusts the index when extent reaches the
	// segment size it read under s.mu and extends it over the bytes
	// after extent otherwise.
	extent int64
	// postings maps a cookie to its records in file order. After a build
	// each cookie's slice is carved, at full capacity, out of one flat
	// array, so extending one cookie's postings reallocates them instead
	// of overwriting its neighbour's.
	postings map[string][]recordRef
}

// addClient adds one record's cookie to the segment's exact client set.
// The cookie is looked up before it is assigned: m[string(b)] does not
// allocate, the assignment does, and nearly every record's cookie is
// already there.
func (seg *segmentInfo) addClient(id []byte) {
	if !seg.clients[string(id)] {
		seg.clients[string(id)] = true
	}
}

// addClients adds the cookie of every record in frames — encoded
// records back to back, a write buffer that has just been spilled into
// this segment — to the segment's exact client set.
func (seg *segmentInfo) addClients(frames []byte) error {
	var fr wire.ProbeFrame
	for len(frames) > 0 {
		n, err := fr.Parse(frames)
		if err != nil {
			return fmt.Errorf("probestore: segment %d: spilled buffer: %w", seg.id, err)
		}
		seg.addClient(fr.ClientID)
		frames = frames[n:]
	}
	return nil
}

// segmentPath returns the file path of segment id under dir.
func segmentPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%08d%s", id, segmentExt))
}

// parseSegmentName extracts the id from a segment file name, reporting
// whether the name is a segment at all. Ids beyond the zero-padded
// 8-digit width still parse (a long-lived store's ids grow
// monotonically and never reset).
func parseSegmentName(name string) (uint64, bool) {
	digits, ok := strings.CutPrefix(name, "seg-")
	if !ok {
		return 0, false
	}
	digits, ok = strings.CutSuffix(digits, segmentExt)
	if !ok || digits == "" {
		return 0, false
	}
	id, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}

// listSegmentIDs returns the ids of the segment files under dir in
// ascending order. Shared by recovery and the Follow tail loop so both
// agree on what a segment is.
func listSegmentIDs(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("probestore: %w", err)
	}
	var ids []uint64
	for _, e := range entries {
		if id, ok := parseSegmentName(e.Name()); ok {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// recover adopts the directory's segments in id order. A segment with a
// valid index sidecar is adopted from the sidecar's metadata without
// reading its records; the rest are scanned. For a writable store the
// final segment's torn tail (a record interrupted mid-write) is
// truncated away and the segment is reopened for appending if it has
// room; a read-only store leaves files untouched and simply skips torn
// tails. A decode failure that is not a clean tear is surfaced as an
// error — that is corruption, not a crash signature, and silently
// dropping data behind it would be worse than stopping.
func (s *Store) recover() error {
	ids, err := listSegmentIDs(s.dir)
	if err != nil {
		return err
	}

	for i, id := range ids {
		last := i == len(ids)-1
		// A writable store may append to the last segment, which needs
		// the exact client set only a scan provides (and a possible
		// torn-tail repair); any other segment is sealed and a trusted
		// sidecar replaces its scan.
		if seg, ok := s.loadSidecar(id); ok && !(last && !s.cfg.readOnly && seg.bytes < s.cfg.maxSegmentBytes) {
			s.segments = append(s.segments, seg)
			s.persisted += uint64(seg.records)
			continue
		}
		seg, torn, err := scanSegment(s.dir, id)
		if err != nil {
			if s.cfg.readOnly && errors.Is(err, fs.ErrNotExist) {
				// A live writer's retention evicted the file between
				// the directory listing and the scan; skip it like
				// Replay does.
				continue
			}
			return err
		}
		if torn > 0 {
			// A torn tail is a crash signature: normally only the last
			// segment, but a failed write rollback can also seal a
			// segment with a torn tail. Either way the tear is at the
			// end of the file, so truncating to the last complete
			// record loses nothing that was ever durable.
			s.truncatedBytes += torn
			if !s.cfg.readOnly {
				if err := os.Truncate(segmentPath(s.dir, id), seg.bytes); err != nil {
					return fmt.Errorf("probestore: truncate torn segment %d: %w", id, err)
				}
			}
		}
		if seg.bytes == 0 {
			// A zero-length file is a crash during segment creation
			// (nothing reached disk, not even the header): remove it so
			// the id can be reused, or skip it read-only.
			if !s.cfg.readOnly {
				if err := os.Remove(segmentPath(s.dir, id)); err != nil {
					return fmt.Errorf("probestore: remove empty segment %d: %w", id, err)
				}
				os.Remove(sidecarPath(s.dir, id)) //nolint:errcheck // best effort
			}
			continue
		}
		// The scan leaves the exact client set and nothing per record: a
		// reopened tail keeps appending to the set, a read-only store
		// skips precisely with it, and a sealed but sidecar-less segment
		// (an older store layout, or a crash between seal and sidecar
		// write) has its sidecar backfilled from it so the next Open
		// skips this scan.
		if !s.cfg.readOnly && !(last && seg.bytes < s.cfg.maxSegmentBytes) {
			if err := s.writeSidecarLocked(seg); err != nil {
				s.noteErrLocked(err) // Open has not published s yet
			}
		}
		s.segments = append(s.segments, seg)
		s.persisted += uint64(seg.records)
	}

	// Reopen the newest recovered segment for appending when it still
	// has room; otherwise the first spill will rotate to a fresh one.
	if !s.cfg.readOnly && len(s.segments) > 0 {
		tail := s.segments[len(s.segments)-1]
		if tail.bytes < s.cfg.maxSegmentBytes {
			f, err := os.OpenFile(segmentPath(s.dir, tail.id), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("probestore: reopen segment %d: %w", tail.id, err)
			}
			s.cur = f
			s.curID = tail.id
			s.curSize = tail.bytes
			// The sidecar written at the previous Close is stale the
			// moment we append; readers would detect the size mismatch
			// and scan, but removing it keeps the invariant simple: a
			// live tail has no sidecar.
			if err := os.Remove(sidecarPath(s.dir, tail.id)); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("probestore: remove stale sidecar %d: %w", tail.id, err)
			}
			tail.filter = nil
		}
	}
	if !s.cfg.readOnly {
		s.removeOrphanSidecars(ids)
		// Apply retention to the recovered set immediately: a restart
		// with tighter limits must not wait for the next rotation (which
		// a quiet server may never reach) to enforce them.
		s.mu.Lock()
		s.pruneLocked() //sbcheck:ignore lockscope single-writer store contract: retention unlinks segments under s.mu so no reader can map an evicted file
		s.mu.Unlock()
	}
	return nil
}

// walkSegment streams the complete records of one segment's bytes
// through fn: data is the file's content from offset base on, starting
// at the segment header when base is 0 and at a record boundary
// otherwise. fn gets each record as a frame that is reused for the
// next — it aliases data and must be copied out of, not kept — with the
// frame's file offset and length. The walk returns the valid extent as
// a file offset (header plus complete records) and the count of torn
// trailing bytes (0 when data ends on a record boundary). A tear — at
// the header or at a record — ends the walk silently; corruption that
// is not a clean tear, and any error from fn, aborts with that error.
// Recovery, Replay and the index builder all walk segments through
// here, so their notions of a segment's valid extent cannot diverge.
func walkSegment(data []byte, base int64, id uint64, fn func(fr *wire.ProbeFrame, off int64, n int) error) (valid, torn int64, err error) {
	off := 0
	if base == 0 {
		if len(data) == 0 {
			return 0, 0, nil
		}
		if off, err = wire.CheckSegmentHeader(data); err != nil {
			if errors.Is(err, wire.ErrTornRecord) {
				// Crash while writing the 3-byte header itself:
				// everything in the file is torn.
				return 0, int64(len(data)), nil
			}
			return 0, 0, fmt.Errorf("probestore: segment %d: %w", id, err)
		}
	}
	var fr wire.ProbeFrame
	for off < len(data) {
		n, err := fr.Parse(data[off:])
		if err != nil {
			if errors.Is(err, wire.ErrTornRecord) {
				break
			}
			return 0, 0, fmt.Errorf("probestore: segment %d at offset %d: %w", id, base+int64(off), err)
		}
		if err := fn(&fr, base+int64(off), n); err != nil {
			return 0, 0, err
		}
		off += n
	}
	return base + int64(off), int64(len(data) - off), nil
}

// walkSegmentFile is walkSegment over the whole of one segment file.
func walkSegmentFile(path string, id uint64, fn func(fr *wire.ProbeFrame, off int64, n int) error) (valid, torn int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("probestore: read segment %d: %w", id, err)
	}
	return walkSegment(data, 0, id, fn)
}

// scanSegment walks one segment file for recovery, returning the
// segment's valid extent, record count and exact client set, and the
// number of torn trailing bytes.
func scanSegment(dir string, id uint64) (*segmentInfo, int64, error) {
	seg := &segmentInfo{id: id, clients: make(map[string]bool)}
	valid, torn, err := walkSegmentFile(segmentPath(dir, id), id,
		func(fr *wire.ProbeFrame, off int64, n int) error {
			seg.addClient(fr.ClientID)
			seg.records++
			return nil
		})
	if err != nil {
		return nil, 0, err
	}
	seg.bytes = valid
	return seg, torn, nil
}

// scanIndex reads one segment from offset from to its current end
// through f, at the size fstat reports and in one read, and indexes the
// complete records it finds: from is 0 for a first build and an
// existing index's extent for an extension. Records are counted per
// cookie first and filled into one flat array second, so the
// allocations are a handful plus one string per distinct cookie,
// however many records there are; hint sizes the per-record scratch.
func scanIndex(f *os.File, id uint64, from int64, hint int) (postings map[string][]recordRef, extent int64, err error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("probestore: stat segment %d: %w", id, err)
	}
	if fi.Size() <= from {
		return nil, from, nil
	}
	data := make([]byte, fi.Size()-from)
	n, err := f.ReadAt(data, from)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, 0, fmt.Errorf("probestore: read segment %d: %w", id, err)
	}
	data = data[:n] // short only if the file shrank since the fstat
	// Pass 1: validate every frame, number the cookies in order of first
	// appearance, count each one's records and note each record's
	// cookie number.
	numbers := make(map[string]uint32)
	var names []string
	var counts []int
	who := make([]uint32, 0, hint)
	extent, _, err = walkSegment(data, from, id, func(fr *wire.ProbeFrame, off int64, n int) error {
		c, ok := numbers[string(fr.ClientID)]
		if !ok {
			c = uint32(len(names))
			name := string(fr.ClientID)
			numbers[name] = c
			names = append(names, name)
			counts = append(counts, 0)
		}
		counts[c]++
		who = append(who, c)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	// Carve the flat array; then pass 2 over the frame lengths alone
	// (pass 1 validated them) drops each record into its cookie's part.
	flat := make([]recordRef, len(who))
	postings = make(map[string][]recordRef, len(names))
	parts := make([][]recordRef, len(names))
	start := 0
	for c, n := range counts {
		parts[c] = flat[start : start : start+n]
		start += n
	}
	off := from
	if from == 0 {
		off = wire.SegmentHeaderSize
	}
	for _, c := range who {
		body, n := binary.Uvarint(data[off-from:])
		size := int64(n) + int64(body)
		parts[c] = append(parts[c], recordRef{off: off, n: int32(size)})
		off += size
	}
	for c, name := range names {
		postings[name] = parts[c]
	}
	return postings, extent, nil
}

// detachIndexLocked drops seg's index, if it has one, and queues the
// index's read handle for unlock to close. The caller holds s.mu.
func (s *Store) detachIndexLocked(seg *segmentInfo) {
	if seg.idx != nil {
		s.detached = append(s.detached, seg.idx.f)
		seg.idx = nil
	}
}

// lockIndex returns seg's index once it covers the first want bytes of
// the segment — the size the caller read under s.mu — building it if
// the segment has none and extending it over the new tail if it stops
// short. On a nil error it returns with s.mu HELD, so the caller reads
// the postings (which extensions mutate) under the lock and unlocks;
// the index is nil when the segment is gone, which is a skip. Scans run
// without the lock and are installed only if nobody else changed the
// index in the meantime; a loser rescans from the winner's extent.
func (s *Store) lockIndex(seg *segmentInfo, want int64) (*segIndex, error) {
	for {
		s.mu.Lock()
		idx := seg.idx
		switch {
		case s.closed:
			s.mu.Unlock()
			return nil, ErrClosed
		case seg.missing:
			return nil, nil
		case idx != nil && idx.extent >= want:
			return idx, nil
		}
		var f *os.File
		var from int64
		if idx != nil {
			f, from = idx.f, idx.extent
		}
		hint := seg.records
		s.mu.Unlock()

		if idx == nil {
			s.segmentOpens.Add(1)
			var err error
			if f, err = os.Open(segmentPath(s.dir, seg.id)); err != nil {
				if !errors.Is(err, fs.ErrNotExist) {
					return nil, fmt.Errorf("probestore: open segment %d: %w", seg.id, err)
				}
				// Evicted by a live writer's retention after we adopted
				// it: cache the miss, so a long history costs one failed
				// open, not one per query.
				s.mu.Lock()
				seg.missing = true
				return nil, nil
			}
		}
		postings, extent, err := scanIndex(f, seg.id, from, hint)
		if err != nil && idx != nil && errors.Is(err, os.ErrClosed) {
			continue // the index went away under the scan; look again
		}

		s.mu.Lock()
		if err != nil || s.closed || seg.idx != idx || (idx != nil && idx.extent != from) {
			// Failed, or somebody else got there first.
			s.mu.Unlock()
			if idx == nil {
				f.Close() //nolint:errcheck // read-side close
			}
			if err != nil {
				return nil, err
			}
			continue
		}
		if idx == nil {
			seg.idx = &segIndex{f: f, extent: extent, postings: postings}
		} else {
			for c, refs := range postings {
				idx.postings[c] = append(idx.postings[c], refs...)
			}
			idx.extent = extent
		}
		// The file has been read to its end: even if that is short of
		// want (a writer rolled a failed spill back under a read-only
		// reader), there is nothing more to cover.
		return seg.idx, nil
	}
}

// Replay iterates every persisted probe in segment order (oldest
// segment first, file order within a segment) and hands each to fn; a
// non-nil error from fn stops the walk and is returned. On a writable
// store Replay spills the write buffer first, so probes still in
// memory are included. The order is the order in which the Observe
// calls returned; see the package comment.
func (s *Store) Replay(fn func(sbserver.Probe) error) error {
	if !s.cfg.readOnly {
		if err := s.spill(); err != nil {
			return err
		}
	}
	for _, seg := range s.Segments() {
		_, _, err := walkSegmentFile(seg.Path, seg.ID,
			func(fr *wire.ProbeFrame, off int64, n int) error {
				return fn(frameProbe(fr))
			})
		if errors.Is(err, fs.ErrNotExist) {
			continue // evicted by retention between snapshot and read
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// frameProbe copies a parsed frame into the in-memory probe shape the
// analysis machinery consumes; the probe shares nothing with the bytes
// the frame aliases. The round trip through UnixNano drops the
// monotonic clock reading; wall time is preserved.
func frameProbe(fr *wire.ProbeFrame) sbserver.Probe {
	p := sbserver.Probe{
		Time:     time.Unix(0, fr.UnixNano),
		ClientID: string(fr.ClientID),
	}
	if np := fr.NumPrefixes(); np > 0 {
		p.Prefixes = fr.AppendPrefixes(make([]hashx.Prefix, 0, np))
	}
	return p
}
