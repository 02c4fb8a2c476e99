package probestore

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"sbprivacy/internal/bloom"
	"sbprivacy/internal/wire"
)

// sidecarExt is the index-sidecar file suffix; a sealed segment
// seg-00000001.plog carries its metadata in seg-00000001.pidx.
const sidecarExt = ".pidx"

// sidecarPath returns the sidecar file path of segment id under dir.
func sidecarPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%08d%s", id, sidecarExt))
}

// parseSidecarName extracts the segment id from a sidecar file name,
// reporting whether the name is a sidecar at all.
func parseSidecarName(name string) (uint64, bool) {
	digits, ok := strings.CutPrefix(name, "seg-")
	if !ok {
		return 0, false
	}
	digits, ok = strings.CutSuffix(digits, sidecarExt)
	if !ok || digits == "" {
		return 0, false
	}
	id, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}

// clientFilter builds the cookie Bloom filter of one sealed segment. An
// empty segment gets a minimal all-zero filter (Contains is always
// false), so the sidecar format never needs a special case.
func clientFilter(clients map[string]bool) (*bloom.Filter, error) {
	if len(clients) == 0 {
		return bloom.New(64, 1)
	}
	f, err := bloom.NewWithEstimate(len(clients), sidecarFPRate)
	if err != nil {
		return nil, err
	}
	for c := range clients {
		f.Insert([]byte(c))
	}
	return f, nil
}

// writeSidecarLocked seals one segment's metadata into its sidecar
// file, written to a temporary name and renamed so a reader never
// observes a half-written sidecar under the final name (a torn sidecar
// would merely cost that reader a scan, but the rename makes the happy
// path the common one). Once the file is in place the segment's filter
// is set and the exact client set it was built from is released: a
// sealed segment is (id, bytes, records, filter) whether this process
// wrote it or adopted it. A failed write keeps the set, which then goes
// on answering for the segment. The caller holds s.mu, or is the
// single-threaded recovery path.
func (s *Store) writeSidecarLocked(seg *segmentInfo) error {
	f, err := clientFilter(seg.clients)
	if err != nil {
		return fmt.Errorf("probestore: sidecar %d: %w", seg.id, err)
	}
	data, err := f.MarshalBinary()
	if err != nil {
		return fmt.Errorf("probestore: sidecar %d: %w", seg.id, err)
	}
	idx := &wire.ProbeIndex{
		SegmentID: seg.id,
		Records:   uint64(seg.records),
		Bytes:     seg.bytes,
		Bloom:     data,
	}
	tmp := sidecarPath(s.dir, seg.id) + ".tmp"
	out, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("probestore: sidecar %d: %w", seg.id, err)
	}
	if err := idx.Encode(out); err != nil {
		out.Close()    //nolint:errcheck // already failing
		os.Remove(tmp) //nolint:errcheck // best effort
		return fmt.Errorf("probestore: sidecar %d: %w", seg.id, err)
	}
	if err := out.Sync(); err != nil {
		out.Close()    //nolint:errcheck // already failing
		os.Remove(tmp) //nolint:errcheck // best effort
		return fmt.Errorf("probestore: sidecar %d: %w", seg.id, err)
	}
	if err := out.Close(); err != nil {
		os.Remove(tmp) //nolint:errcheck // best effort
		return fmt.Errorf("probestore: sidecar %d: %w", seg.id, err)
	}
	if err := os.Rename(tmp, sidecarPath(s.dir, seg.id)); err != nil {
		os.Remove(tmp) //nolint:errcheck // best effort
		return fmt.Errorf("probestore: sidecar %d: %w", seg.id, err)
	}
	seg.filter = f
	seg.clients = nil
	return nil
}

// loadSidecar reads and verifies segment id's sidecar, returning the
// segmentInfo it describes. Any failure — missing or unreadable file,
// decode error, id mismatch, a segment file whose size disagrees with
// the recorded extent (a stale sidecar from before a crash-recovery
// truncation, or a tail that grew after sealing), or an undecodable
// bloom — returns ok=false and the caller falls back to scanning the
// segment. The sidecar is an accelerator, never an authority.
func (s *Store) loadSidecar(id uint64) (*segmentInfo, bool) {
	data, err := os.ReadFile(sidecarPath(s.dir, id))
	if err != nil {
		return nil, false
	}
	idx, err := wire.DecodeProbeIndex(data)
	if err != nil || idx.SegmentID != id {
		return nil, false
	}
	fi, err := os.Stat(segmentPath(s.dir, id))
	if err != nil || fi.Size() != idx.Bytes || idx.Bytes < wire.SegmentHeaderSize {
		return nil, false
	}
	f, err := bloom.UnmarshalBinary(idx.Bloom)
	if err != nil {
		return nil, false
	}
	return &segmentInfo{
		id:      id,
		bytes:   idx.Bytes,
		records: int(idx.Records),
		filter:  f,
	}, true
}

// removeOrphanSidecars deletes sidecar files whose segment no longer
// exists (retention removed the segment but the sidecar delete failed,
// or a crash landed between the two deletes). Writable recovery only;
// ids is the sorted list of live segment ids.
func (s *Store) removeOrphanSidecars(ids []uint64) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return // best effort: orphans are harmless
	}
	live := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		live[id] = true
	}
	for _, e := range entries {
		if id, ok := parseSidecarName(e.Name()); ok && !live[id] {
			os.Remove(filepath.Join(s.dir, e.Name())) //nolint:errcheck // best effort
		}
		// A .pidx.tmp is a sidecar write that never reached its rename
		// (crash mid-seal); with the writer lock held nothing owns it.
		if strings.HasSuffix(e.Name(), sidecarExt+".tmp") {
			os.Remove(filepath.Join(s.dir, e.Name())) //nolint:errcheck // best effort
		}
	}
}
