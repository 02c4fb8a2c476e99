package probestore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"sbprivacy/internal/bloom"
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
	// clients is the exact set of cookies with records in this segment.
	// Present for segments this process wrote or scanned; nil for
	// segments adopted from a sidecar, where filter stands in.
	clients map[string]bool
	// filter is the sidecar's client-cookie Bloom filter (nil until the
	// segment is sealed, and on scanned segments without a sidecar).
	filter *bloom.Filter
	// index maps client → record refs inside this segment. Maintained
	// incrementally for the writable store's current segment; built
	// lazily (buildSegIndex) for everything else. nil until built.
	index map[string][]recordRef
	// missing records that the segment file disappeared (a live
	// writer's retention evicted it while we were reading). Cached so
	// later queries skip the segment without retrying the open.
	missing bool
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
		// the exact client set and index only a scan provides (and a
		// possible torn-tail repair); any other segment is sealed and a
		// trusted sidecar replaces its scan.
		if seg, ok := s.loadSidecar(id); ok && !(last && !s.cfg.readOnly && seg.bytes < s.cfg.maxSegmentBytes) {
			s.segments = append(s.segments, seg)
			s.persisted += uint64(seg.records)
			continue
		}
		seg, refs, torn, err := scanSegment(s.dir, id)
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
		// The scan's exact client set enables precise history skips; the
		// refs themselves are kept only where appends will extend them
		// (the reopened tail) — elsewhere the index is rebuilt lazily if
		// a query ever needs it, keeping recovery memory proportional to
		// cookies, not records.
		seg.clients = make(map[string]bool, len(refs))
		for _, r := range refs {
			seg.clients[r.client] = true
		}
		if !s.cfg.readOnly && last && seg.bytes < s.cfg.maxSegmentBytes {
			seg.index = make(map[string][]recordRef, len(seg.clients))
			for _, r := range refs {
				seg.index[r.client] = append(seg.index[r.client], recordRef{off: r.off, n: int32(r.n)})
			}
		} else if !s.cfg.readOnly {
			// Sealed but sidecar-less (an older store layout, or a
			// crash between seal and sidecar write): backfill the
			// sidecar so the next Open skips this scan.
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

// scanRef is one record located during a segment scan.
type scanRef struct {
	client string
	off    int64
	n      int
}

// walkSegment streams one segment file's complete records through fn
// (with each frame's offset and length), returning the valid extent
// (header plus complete records) and the count of torn trailing bytes
// (0 when the file ends on a record boundary). A tear — at the header
// or at a record — ends the walk silently; corruption that is not a
// clean tear, and any error from fn, aborts with that error. Recovery,
// Replay and the lazy index builder all walk segments through here, so
// their notions of a segment's valid extent cannot diverge.
func walkSegment(path string, id uint64, fn func(rec *wire.ProbeRecord, off int64, n int) error) (valid, torn int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("probestore: read segment %d: %w", id, err)
	}
	if len(data) == 0 {
		return 0, 0, nil
	}
	hdr, err := wire.CheckSegmentHeader(data)
	if err != nil {
		if errors.Is(err, wire.ErrTornRecord) {
			// Crash while writing the 3-byte header itself: everything
			// in the file is torn.
			return 0, int64(len(data)), nil
		}
		return 0, 0, fmt.Errorf("probestore: segment %d: %w", id, err)
	}
	off := int64(hdr)
	for off < int64(len(data)) {
		rec, n, err := wire.DecodeProbeRecord(data[off:])
		if err != nil {
			if errors.Is(err, wire.ErrTornRecord) {
				break
			}
			return 0, 0, fmt.Errorf("probestore: segment %d at offset %d: %w", id, off, err)
		}
		if err := fn(rec, off, n); err != nil {
			return 0, 0, err
		}
		off += int64(n)
	}
	return off, int64(len(data)) - off, nil
}

// scanSegment walks one segment file for recovery, returning the
// segment's valid extent, the record locations for the client index,
// and the number of torn trailing bytes.
func scanSegment(dir string, id uint64) (*segmentInfo, []scanRef, int64, error) {
	seg := &segmentInfo{id: id}
	var refs []scanRef
	valid, torn, err := walkSegment(segmentPath(dir, id), id,
		func(rec *wire.ProbeRecord, off int64, n int) error {
			refs = append(refs, scanRef{client: rec.ClientID, off: off, n: n})
			seg.records++
			return nil
		})
	if err != nil {
		return nil, nil, 0, err
	}
	seg.bytes = valid
	return seg, refs, torn, nil
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
		_, _, err := walkSegment(seg.Path, seg.ID,
			func(rec *wire.ProbeRecord, off int64, n int) error {
				return fn(recordProbe(rec))
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

// recordProbe converts a decoded wire record back into the in-memory
// probe shape the analysis machinery consumes. The round trip through
// UnixNano drops the monotonic clock reading; wall time is preserved.
func recordProbe(rec *wire.ProbeRecord) sbserver.Probe {
	return sbserver.Probe{
		Time:     time.Unix(0, rec.UnixNano),
		ClientID: rec.ClientID,
		Prefixes: rec.Prefixes,
	}
}
