package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"sbprivacy/internal/hashx"
)

// MaxProbeClientIDBytes is the longest client id a probe record may
// carry (the protocol's string limit). Exported so callers that accept
// probes from paths that bypass wire decoding (e.g. LocalTransport)
// can clamp before encoding instead of failing.
const MaxProbeClientIDBytes = maxStringLen

// MaxProbePrefixes is the most prefixes one probe record may carry
// (the protocol's per-request limit); see MaxProbeClientIDBytes for
// why it is exported.
const MaxProbePrefixes = maxPrefixesPerReq

// MaxProbeRecordBytes bounds the body of one encoded probe record. It is
// sized from the protocol limits (a client id of at most maxStringLen
// bytes plus maxPrefixesPerReq prefixes) with headroom, so a corrupt
// length prefix cannot force a large allocation during recovery scans.
const MaxProbeRecordBytes = 4096

// ErrTornRecord reports a probe record whose frame extends past the end
// of the available bytes: the tail of a segment that was being written
// when the process died. Recovery truncates the segment at the last
// complete record.
var ErrTornRecord = errors.New("wire: torn probe record")

// ProbeRecord is the durable form of one observed probe — the (cookie,
// prefixes, timestamp) triple the paper's provider retains. It is the
// unit of the probe-log segment format used by internal/probestore.
//
// On disk a record is framed as uvarint(len(body)) followed by the body:
// varint unix nanoseconds, uvarint-length-prefixed client id, uvarint
// prefix count, then the 4-byte big-endian prefixes. The length prefix
// makes torn-tail detection exact: a record whose frame runs past EOF
// was interrupted mid-write.
type ProbeRecord struct {
	// UnixNano is the probe's arrival time in Unix nanoseconds.
	UnixNano int64
	// ClientID is the Safe Browsing cookie that sent the probe.
	ClientID string
	// Prefixes are the 32-bit prefixes the probe carried.
	Prefixes []hashx.Prefix
}

// AppendProbeRecord appends the length-prefixed encoding of m to dst and
// returns the extended slice. It fails if the client id or prefix count
// exceeds the protocol limits (the same bounds the decoder enforces).
// The body is sized first and encoded straight into dst, so a dst with
// room for the frame costs no allocation.
//
//sbcheck:hotpath
func AppendProbeRecord(dst []byte, m *ProbeRecord) ([]byte, error) {
	if len(m.ClientID) > maxStringLen {
		return dst, errProbeClientIDTooLarge(len(m.ClientID))
	}
	if len(m.Prefixes) > maxPrefixesPerReq {
		return dst, errProbePrefixCountTooLarge(len(m.Prefixes))
	}
	// Varint zigzag-codes its argument; its length is that of the coded
	// value.
	zigzag := uint64(m.UnixNano) << 1
	if m.UnixNano < 0 {
		zigzag = ^zigzag
	}
	body := uvarintLen(zigzag) +
		uvarintLen(uint64(len(m.ClientID))) + len(m.ClientID) +
		uvarintLen(uint64(len(m.Prefixes))) + hashx.PrefixSize*len(m.Prefixes)
	dst = binary.AppendUvarint(dst, uint64(body))
	dst = binary.AppendVarint(dst, m.UnixNano)
	dst = binary.AppendUvarint(dst, uint64(len(m.ClientID)))
	dst = append(dst, m.ClientID...)
	dst = binary.AppendUvarint(dst, uint64(len(m.Prefixes)))
	for _, p := range m.Prefixes {
		dst = binary.BigEndian.AppendUint32(dst, uint32(p))
	}
	return dst, nil
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for v.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// The encoder's and the frame parser's formatted errors live in these
// small functions so the marked hot paths carry no fmt call; each runs
// once per rejected record.

func errProbeClientIDTooLarge(n int) error {
	return fmt.Errorf("%w: client id = %d > %d bytes", ErrTooLarge, n, maxStringLen)
}

func errProbePrefixCountTooLarge(n int) error {
	return fmt.Errorf("%w: prefix count = %d > %d", ErrTooLarge, n, maxPrefixesPerReq)
}

func errProbeBodyTooLarge(n uint64) error {
	return fmt.Errorf("%w: probe record body = %d > %d bytes", ErrTooLarge, n, MaxProbeRecordBytes)
}

// Corruption the frame parser reports; none is a torn tail.
var (
	errProbeLenOverflow = errors.New("wire: probe record length overflows uvarint")
	errProbeTimestamp   = errors.New("wire: probe record: bad timestamp varint")
	errProbeClientID    = errors.New("wire: probe record: bad client id")
	errProbePrefixBlock = errors.New("wire: probe record: bad prefix block")
)

// ProbeFrame is a validated view of one encoded probe record: the
// fields of a ProbeRecord with the client id and the prefixes still in
// their wire form, aliasing the bytes Parse was given. Nothing is
// copied and nothing is allocated, which is what lets a segment scan
// that only needs the cookie (recovery, the client index) or that
// filters before it materialises (a history read) run at memory speed.
// A frame is valid until the next Parse into it and only as long as the
// parsed bytes are.
type ProbeFrame struct {
	// UnixNano is the probe's arrival time in Unix nanoseconds.
	UnixNano int64
	// ClientID is the cookie's bytes inside the parsed input.
	ClientID []byte
	// prefixes is the block of 4-byte big-endian prefixes inside the
	// parsed input.
	prefixes []byte
}

// Parse validates the length-prefixed probe record at the front of b
// and points f at its fields, returning the number of bytes the frame
// occupies. A frame that extends past len(b) returns ErrTornRecord
// (with consumed = 0), which callers use to find the truncation point
// of an interrupted segment write. Any other malformed content returns
// a non-nil error describing the corruption. It is the one validation
// of the record format: DecodeProbeRecord is a copy of what it accepts.
//
//sbcheck:hotpath
func (f *ProbeFrame) Parse(b []byte) (int, error) {
	bodyLen, n := binary.Uvarint(b)
	if n == 0 {
		return 0, ErrTornRecord
	}
	if n < 0 {
		return 0, errProbeLenOverflow
	}
	if bodyLen > MaxProbeRecordBytes {
		return 0, errProbeBodyTooLarge(bodyLen)
	}
	if uint64(len(b)-n) < bodyLen {
		return 0, ErrTornRecord
	}
	body := b[n : n+int(bodyLen)]
	consumed := n + int(bodyLen)

	nano, vn := binary.Varint(body)
	if vn <= 0 {
		return 0, errProbeTimestamp
	}
	body = body[vn:]

	idLen, vn := binary.Uvarint(body)
	if vn <= 0 || idLen > maxStringLen || uint64(len(body)-vn) < idLen {
		return 0, errProbeClientID
	}
	id := body[vn : vn+int(idLen)]
	body = body[vn+int(idLen):]

	np, vn := binary.Uvarint(body)
	if vn <= 0 || np > maxPrefixesPerReq || uint64(len(body)-vn) != np*hashx.PrefixSize {
		return 0, errProbePrefixBlock
	}
	f.UnixNano, f.ClientID, f.prefixes = nano, id, body[vn:]
	return consumed, nil
}

// NumPrefixes returns how many prefixes the record carries.
func (f *ProbeFrame) NumPrefixes() int { return len(f.prefixes) / hashx.PrefixSize }

// AppendPrefixes appends the record's prefixes to dst and returns the
// extended slice.
//
//sbcheck:hotpath
func (f *ProbeFrame) AppendPrefixes(dst []hashx.Prefix) []hashx.Prefix {
	for b := f.prefixes; len(b) > 0; b = b[hashx.PrefixSize:] {
		dst = append(dst, hashx.Prefix(binary.BigEndian.Uint32(b)))
	}
	return dst
}

// DecodeProbeRecord parses one length-prefixed probe record from the
// front of b, returning the record and the number of bytes it consumed.
// Validation, errors and the consumed count are ProbeFrame.Parse's; the
// record is a copy of the frame that shares nothing with b.
func DecodeProbeRecord(b []byte) (*ProbeRecord, int, error) {
	var f ProbeFrame
	consumed, err := f.Parse(b)
	if err != nil {
		return nil, 0, err
	}
	m := &ProbeRecord{UnixNano: f.UnixNano, ClientID: string(f.ClientID)}
	if np := f.NumPrefixes(); np > 0 {
		m.Prefixes = f.AppendPrefixes(make([]hashx.Prefix, 0, np))
	}
	return m, consumed, nil
}

// MaxProbeIndexBloomBytes bounds the serialized client-cookie Bloom
// filter one probe-index sidecar may carry, so a corrupt length field
// cannot force a large allocation. A 4 MiB segment of minimal records
// holds well under 512k distinct cookies; at ~10 bits per cookie the
// filter stays under 1 MiB, so 8 MiB is generous headroom.
const MaxProbeIndexBloomBytes = 8 << 20

// maxProbeIndexFileBytes bounds the segment byte extent a sidecar may
// claim (1 TiB — far beyond any rotation size this code produces).
const maxProbeIndexFileBytes = 1 << 40

// ProbeIndex is the content of a probe-segment index sidecar file
// (seg-NNNNNNNN.pidx): enough metadata for a reader to account for the
// segment — and to decide whether a client cookie could appear in it —
// without scanning the segment's records. The sidecar is advisory: a
// reader that finds it missing, torn, or disagreeing with the segment
// file falls back to a full scan.
type ProbeIndex struct {
	// SegmentID is the id of the segment this sidecar describes.
	SegmentID uint64
	// Records is the number of complete records in the segment.
	Records uint64
	// Bytes is the segment's valid byte extent, header included. A
	// sealed segment's file size must equal it exactly; any other size
	// means the sidecar is stale.
	Bytes int64
	// Bloom is the serialized bloom.Filter of the segment's client
	// cookies (bloom.MarshalBinary). Opaque at this layer so the wire
	// package stays free of the filter implementation.
	Bloom []byte
}

// Encode writes the sidecar message (header included) to w.
func (m *ProbeIndex) Encode(w io.Writer) error {
	if len(m.Bloom) > MaxProbeIndexBloomBytes {
		return fmt.Errorf("%w: bloom = %d > %d bytes", ErrTooLarge, len(m.Bloom), MaxProbeIndexBloomBytes)
	}
	if m.Bytes < 0 || m.Bytes > maxProbeIndexFileBytes {
		return fmt.Errorf("%w: segment bytes = %d", ErrTooLarge, m.Bytes)
	}
	buf := make([]byte, 0, 3+4*binary.MaxVarintLen64+len(m.Bloom))
	buf = append(buf, Magic, Version, byte(MsgProbeIndex))
	buf = binary.AppendUvarint(buf, m.SegmentID)
	buf = binary.AppendUvarint(buf, m.Records)
	buf = binary.AppendUvarint(buf, uint64(m.Bytes))
	buf = binary.AppendUvarint(buf, uint64(len(m.Bloom)))
	buf = append(buf, m.Bloom...)
	_, err := w.Write(buf)
	return err
}

// DecodeProbeIndex parses a sidecar message from b (the whole file).
// Any torn, trailing-garbage or over-limit content is an error: sidecar
// readers treat every decode failure the same way — ignore the sidecar
// and scan the segment — so this decoder never guesses.
func DecodeProbeIndex(b []byte) (*ProbeIndex, error) {
	if len(b) < SegmentHeaderSize {
		return nil, ErrTornRecord
	}
	if b[0] != Magic {
		return nil, ErrBadMagic
	}
	if b[1] != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, b[1])
	}
	if MsgType(b[2]) != MsgProbeIndex {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrBadType, b[2], MsgProbeIndex)
	}
	b = b[SegmentHeaderSize:]
	m := &ProbeIndex{}
	var n int
	if m.SegmentID, n = binary.Uvarint(b); n <= 0 {
		return nil, fmt.Errorf("wire: probe index: bad segment id")
	}
	b = b[n:]
	if m.Records, n = binary.Uvarint(b); n <= 0 {
		return nil, fmt.Errorf("wire: probe index: bad record count")
	}
	b = b[n:]
	bytes, n := binary.Uvarint(b)
	if n <= 0 || bytes > maxProbeIndexFileBytes {
		return nil, fmt.Errorf("wire: probe index: bad byte extent")
	}
	m.Bytes = int64(bytes)
	b = b[n:]
	bloomLen, n := binary.Uvarint(b)
	if n <= 0 || bloomLen > MaxProbeIndexBloomBytes || uint64(len(b)-n) != bloomLen {
		return nil, fmt.Errorf("wire: probe index: bad bloom block")
	}
	m.Bloom = append([]byte(nil), b[n:]...)
	return m, nil
}

// SegmentHeaderSize is the byte length of a probe-segment file header.
const SegmentHeaderSize = 3

// WriteSegmentHeader writes the probe-segment file header (magic,
// version, MsgProbeSegment) to w. Every segment file starts with it.
func WriteSegmentHeader(w io.Writer) error {
	_, err := w.Write([]byte{Magic, Version, byte(MsgProbeSegment)})
	return err
}

// CheckSegmentHeader validates the leading probe-segment header in b and
// returns the number of bytes it occupies. Segments shorter than the
// header are torn (an interrupted create); a wrong magic, version or
// type is corruption.
func CheckSegmentHeader(b []byte) (int, error) {
	if len(b) < SegmentHeaderSize {
		return 0, ErrTornRecord
	}
	if b[0] != Magic {
		return 0, ErrBadMagic
	}
	if b[1] != Version {
		return 0, fmt.Errorf("%w: %d", ErrBadVersion, b[1])
	}
	if MsgType(b[2]) != MsgProbeSegment {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrBadType, b[2], MsgProbeSegment)
	}
	return SegmentHeaderSize, nil
}
