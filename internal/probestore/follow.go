package probestore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"time"

	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/wire"
)

// DefaultFollowPoll is the interval at which Follow re-checks a quiet
// store directory for new bytes and new segments.
const DefaultFollowPoll = 50 * time.Millisecond

// ErrFollowWritable reports Follow called on a writable store. Tailing
// is the reader's side of the live-store protocol; the writer already
// sees its own probes through Observe.
var ErrFollowWritable = errors.New("probestore: Follow requires a read-only store")

// FollowOption configures Store.Follow.
type FollowOption func(*followConfig)

type followConfig struct {
	poll time.Duration
}

// WithFollowPoll sets the idle poll interval of Follow. Non-positive
// values fall back to DefaultFollowPoll.
func WithFollowPoll(d time.Duration) FollowOption {
	return func(c *followConfig) { c.poll = d }
}

// Follow tails the store directory like `tail -f`: every probe already
// persisted is delivered to fn in segment order, then Follow keeps
// watching — resuming each segment from its last valid extent as the
// writer appends, and picking up newly rotated segments by id — until
// ctx is cancelled (the clean stop; Follow returns nil) or fn returns
// an error (returned as-is). Requires a read-only store, so a live
// writer's directory can be tailed from another process.
//
// Semantics match Replay where they overlap: delivery order is the
// writer's arrival order, a record is delivered exactly once, and a
// segment evicted by the writer's retention before the tail reaches it
// is skipped. A record half-written at the moment of a poll (a torn
// tail) is simply not delivered yet; the next poll re-reads from the
// last record boundary. Mid-file corruption aborts with an error, like
// recovery. Probes the writer has buffered but not yet spilled are
// invisible until they reach disk — a tail reader lags the live stream
// by at most the writer's spill threshold plus one poll interval.
//
// One caveat weakens exactly-once during a writer-side disk failure: a
// failed spill rolls the segment back to its last durable boundary
// (see spillLocked), and a tail that already consumed the rolled-back
// bytes has delivered records the store then discarded. The tail
// detects the shrink and resyncs to the new boundary, but those extra
// deliveries cannot be recalled — over a rollback window the followed
// stream is a superset of the retained log, never a corruption of it.
func (s *Store) Follow(ctx context.Context, fn func(sbserver.Probe) error, opts ...FollowOption) error {
	if !s.cfg.readOnly {
		return ErrFollowWritable
	}
	cfg := followConfig{poll: DefaultFollowPoll}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.poll <= 0 {
		cfg.poll = DefaultFollowPoll
	}

	var cur *segFollower
	var nextID uint64 // lowest segment id not yet fully delivered
	defer func() {
		if cur != nil {
			cur.close()
		}
	}()
	for {
		// The listing happens before the drain on purpose: if it shows
		// a segment newer than cur, every byte of cur was written
		// before that newer file was created — so the drain below,
		// running after the listing, is guaranteed to read cur to its
		// true end, and advancing past it loses nothing.
		ids, err := listSegmentIDs(s.dir)
		if err != nil {
			return err
		}
		progressed := false
		if cur == nil {
			for _, id := range ids {
				if id >= nextID {
					cur = newSegFollower(s.dir, id)
					progressed = true
					break
				}
			}
		}
		if cur != nil {
			n, err := cur.drain(fn)
			switch {
			case errors.Is(err, fs.ErrNotExist):
				// The writer's retention evicted the segment under us;
				// whatever we had not read yet is gone, like a replay
				// that starts after eviction.
				nextID = cur.id + 1
				cur.close()
				cur = nil
				progressed = true
			case err != nil:
				return err
			default:
				if n > 0 {
					progressed = true
				}
				sealed := false
				for _, id := range ids {
					if id > cur.id {
						sealed = true
						break
					}
				}
				if sealed {
					// Leftover undecoded bytes in a sealed segment are
					// a write-rollback fragment; recovery tolerates the
					// same tear by truncation, the tail skips it.
					nextID = cur.id + 1
					cur.close()
					cur = nil
					progressed = true
				}
			}
		}
		if progressed {
			// More may be immediately available; only yield to the
			// context between bursts.
			select {
			case <-ctx.Done():
				return nil
			default:
			}
			continue
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(cfg.poll):
		}
	}
}

// segFollower incrementally decodes one growing segment file: bytes
// are read from the file past the last read offset, appended to a
// carry buffer, and complete records are delivered from its front. A
// torn record stays in the buffer until the writer completes it.
type segFollower struct {
	path    string
	id      uint64
	f       *os.File
	off     int64 // bytes consumed from the file into buf
	buf     []byte
	hdrDone bool
}

func newSegFollower(dir string, id uint64) *segFollower {
	return &segFollower{path: segmentPath(dir, id), id: id}
}

func (sf *segFollower) close() {
	if sf.f != nil {
		sf.f.Close() //nolint:errcheck // read-side close
		sf.f = nil
	}
}

// drain reads every byte appended since the last call, decodes the
// complete records, and delivers them to fn, returning how many were
// delivered. fs.ErrNotExist (segment evicted), corruption, and fn
// errors are returned to the Follow loop.
func (sf *segFollower) drain(fn func(sbserver.Probe) error) (int, error) {
	if sf.f == nil {
		f, err := os.Open(sf.path)
		if err != nil {
			return 0, err
		}
		sf.f = f
	}
	// A file shorter than what we already consumed means the writer
	// rolled back a failed spill (spillLocked's Truncate). The new end
	// is a record boundary; resync there and drop the carry buffer —
	// anything we delivered past it was never durable (see the Follow
	// comment's rollback caveat).
	if fi, err := sf.f.Stat(); err == nil && fi.Size() < sf.off {
		sf.off = fi.Size()
		sf.buf = nil
		if sf.off < int64(wire.SegmentHeaderSize) {
			sf.off = 0
			sf.hdrDone = false
		}
	}
	var scratch [32 << 10]byte
	for {
		n, err := sf.f.ReadAt(scratch[:], sf.off)
		if n > 0 {
			sf.buf = append(sf.buf, scratch[:n]...)
			sf.off += int64(n)
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("probestore: follow segment %d: %w", sf.id, err)
		}
		if n == 0 {
			break
		}
	}
	delivered := 0
	if !sf.hdrDone {
		if len(sf.buf) < wire.SegmentHeaderSize {
			return 0, nil // header still being written
		}
		if _, err := wire.CheckSegmentHeader(sf.buf); err != nil {
			return 0, fmt.Errorf("probestore: follow segment %d: %w", sf.id, err)
		}
		sf.buf = sf.buf[wire.SegmentHeaderSize:]
		sf.hdrDone = true
	}
	var fr wire.ProbeFrame
	for len(sf.buf) > 0 {
		n, err := fr.Parse(sf.buf)
		if errors.Is(err, wire.ErrTornRecord) {
			break // mid-spill; the rest arrives with the next poll
		}
		if err != nil {
			return delivered, fmt.Errorf("probestore: follow segment %d: %w", sf.id, err)
		}
		if err := fn(frameProbe(&fr)); err != nil {
			return delivered, err
		}
		sf.buf = sf.buf[n:]
		delivered++
	}
	// Re-home the remainder (at most one torn record) so the carry
	// buffer does not pin the whole burst's backing array.
	if len(sf.buf) == 0 {
		sf.buf = nil
	} else {
		sf.buf = append([]byte(nil), sf.buf...)
	}
	return delivered, nil
}
