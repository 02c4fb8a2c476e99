// Package wire defines the binary messages exchanged between a Safe
// Browsing client and server: incremental list downloads (shavar add/sub
// chunks of 32-bit prefixes) and full-hash requests.
//
// The encoding is a compact length-prefixed binary format: a three-byte
// header (magic, version, message type) followed by uvarint-framed fields.
// All decoders enforce hard limits so a malicious peer cannot force
// unbounded allocations.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"sbprivacy/internal/hashx"
)

// Protocol constants.
const (
	Magic   = 0x53 // 'S'
	Version = 1
)

// MsgType identifies a message on the wire.
type MsgType uint8

// Message types.
const (
	MsgDownloadRequest MsgType = iota + 1
	MsgDownloadResponse
	MsgFullHashRequest
	MsgFullHashResponse
	MsgFullHashBatchRequest
	MsgFullHashBatchResponse
	// MsgProbeSegment identifies a probe-log segment file: the standard
	// three-byte header followed by length-prefixed probe records (see
	// probe.go and internal/probestore).
	MsgProbeSegment
	// MsgProbeIndex identifies a probe-segment index sidecar file: the
	// segment's record count, byte extent, and a Bloom filter of its
	// client cookies, so readers can skip segments without a client
	// instead of scanning them (see ProbeIndex and internal/probestore).
	MsgProbeIndex
)

// ChunkType distinguishes additions from removals.
type ChunkType uint8

// Chunk types. Add chunks insert prefixes; sub chunks remove previously
// added prefixes (the dynamics that made Bloom filters unsuitable).
const (
	ChunkAdd ChunkType = iota + 1
	ChunkSub
)

// Decoder limits.
const (
	maxStringLen        = 1024
	maxLists            = 64
	maxChunksPerMsg     = 16384
	maxPrefixesPerChunk = 1 << 21
	maxPrefixesPerReq   = 256
	maxFullHashEntries  = 4096
)

// MaxBatchRequests is the largest number of full-hash requests one
// batch message may carry. Callers with more requests must send several
// frames (HTTPTransport.FullHashesBatch chunks automatically).
const MaxBatchRequests = 64

// maxVarint is the worst-case byte length of one uvarint field, used to
// bound whole-message sizes below.
const maxVarint = binary.MaxVarintLen64

// Upper bounds on the encoded size of each client→server request the
// decoders would accept, derived from the field limits above. HTTP
// servers cap request bodies with these (http.MaxBytesReader) so a
// client cannot stream an unbounded body at a handler: anything larger
// necessarily violates a field limit and would be rejected anyway.
const (
	// MaxDownloadRequestWireBytes bounds an encoded DownloadRequest.
	MaxDownloadRequestWireBytes = 3 + maxVarint + maxStringLen +
		maxVarint + maxLists*(maxVarint+maxStringLen+maxVarint)
	// MaxFullHashRequestWireBytes bounds an encoded FullHashRequest.
	MaxFullHashRequestWireBytes = 3 + maxVarint + maxStringLen +
		maxVarint + maxPrefixesPerReq*hashx.PrefixSize
	// MaxFullHashBatchRequestWireBytes bounds an encoded
	// FullHashBatchRequest.
	MaxFullHashBatchRequestWireBytes = 3 + maxVarint +
		MaxBatchRequests*(MaxFullHashRequestWireBytes-3)
)

// Upper bounds on the encoded size of each full-hash server→client
// response the decoders would accept, derived the same way. Clients cap
// what they read of a full-hash answer with these, so a provider cannot
// stream an unbounded body at them. Download responses have no such
// bound: their size grows with the list.
const (
	// MaxFullHashResponseWireBytes bounds an encoded FullHashResponse.
	MaxFullHashResponseWireBytes = 3 + maxVarint + maxVarint +
		maxFullHashEntries*(maxVarint+maxStringLen+hashx.DigestSize)
	// MaxFullHashBatchResponseWireBytes bounds an encoded
	// FullHashBatchResponse.
	MaxFullHashBatchResponseWireBytes = 3 + maxVarint +
		MaxBatchRequests*(MaxFullHashResponseWireBytes-3)
)

// Errors returned by decoders.
var (
	ErrBadMagic   = errors.New("wire: bad magic byte")
	ErrBadVersion = errors.New("wire: unsupported protocol version")
	ErrBadType    = errors.New("wire: unexpected message type")
	ErrTooLarge   = errors.New("wire: field exceeds protocol limit")
)

// Chunk is one incremental update unit for a list.
type Chunk struct {
	List     string
	Num      uint32
	Type     ChunkType
	Prefixes []hashx.Prefix
}

// ListState reports, per list, the highest chunk number a client has
// applied; the server responds with everything newer.
type ListState struct {
	List      string
	LastChunk uint32
}

// DownloadRequest asks for incremental updates on a set of lists.
type DownloadRequest struct {
	ClientID string // the Safe Browsing cookie (Section 2.2.3)
	States   []ListState
}

// DownloadResponse carries new chunks and the minimum wait before the
// next poll (the server-imposed query frequency of Section 2.2.1).
type DownloadResponse struct {
	MinWaitSeconds uint32
	Chunks         []Chunk
}

// FullHashRequest sends the 32-bit prefixes that hit the local database —
// the exact information the privacy analysis is about.
type FullHashRequest struct {
	ClientID string
	Prefixes []hashx.Prefix
}

// FullHashEntry is one full digest matching a requested prefix.
type FullHashEntry struct {
	List   string
	Digest hashx.Digest
}

// FullHashResponse returns every full digest matching any requested
// prefix, plus how long the client may cache them.
type FullHashResponse struct {
	CacheSeconds uint32
	Entries      []FullHashEntry
}

// FullHashBatchRequest carries several full-hash requests in one round
// trip, amortizing connection and framing overhead for high-volume
// callers (audits, load generators, proxies multiplexing many clients).
type FullHashBatchRequest struct {
	Requests []FullHashRequest
}

// FullHashBatchResponse carries one response per batched request, in
// request order.
type FullHashBatchResponse struct {
	Responses []FullHashResponse
}

type writer struct {
	w   io.Writer
	err error
	// scratch backs the fixed-size fields (header, uvarint, prefix).
	// Slicing a struct field into the w.Write interface call does not
	// escape the way a local array does, so the per-field encodes stay
	// allocation-free (see TestWireHotPathAllocs).
	scratch [binary.MaxVarintLen64]byte
}

//sbcheck:hotpath
func (e *writer) header(t MsgType) {
	e.scratch[0] = Magic
	e.scratch[1] = Version
	e.scratch[2] = byte(t)
	e.bytes(e.scratch[:3])
}

//sbcheck:hotpath
func (e *writer) bytes(b []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(b)
}

//sbcheck:hotpath
func (e *writer) uvarint(v uint64) {
	n := binary.PutUvarint(e.scratch[:], v)
	e.bytes(e.scratch[:n])
}

func (e *writer) str(s string) {
	e.uvarint(uint64(len(s)))
	if e.err == nil {
		_, e.err = io.WriteString(e.w, s)
	}
}

//sbcheck:hotpath
func (e *writer) prefix(p hashx.Prefix) {
	b := p.Bytes()
	n := copy(e.scratch[:], b[:])
	e.bytes(e.scratch[:n])
}

// byteReader is what a reader decodes from. A *bytes.Reader or
// *bytes.Buffer already is one and is read as it is; any other stream
// is put behind a bufio.Reader (see newReader).
type byteReader interface {
	io.Reader
	io.ByteReader
}

type reader struct {
	r byteReader
	// last is the string str returned most recently. A message repeats
	// its strings (every entry of a one-list response names the same
	// list), so str hands back last when the bytes are equal instead of
	// allocating a copy per field.
	last string
	// scratch backs the fixed-size reads (header, prefix, digest) and
	// the bodies of strings that fit; a struct field sliced into
	// io.ReadFull does not escape the way a local array does, keeping
	// the per-record decodes allocation-free (see TestWireHotPathAllocs).
	// Cookies and list names fit; a longer string gets a buffer of its
	// own rather than every decode zeroing maxStringLen bytes.
	scratch [128]byte
}

// newReader reads from r directly when r is a byteReader (a message
// already held whole in memory) and through a bufio.Reader otherwise.
func newReader(r io.Reader) *reader {
	br, ok := r.(byteReader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &reader{r: br}
}

func (d *reader) header(want MsgType) error {
	if _, err := io.ReadFull(d.r, d.scratch[:3]); err != nil {
		return fmt.Errorf("wire: read header: %w", err)
	}
	if d.scratch[0] != Magic {
		return ErrBadMagic
	}
	if d.scratch[1] != Version {
		return fmt.Errorf("%w: %d", ErrBadVersion, d.scratch[1])
	}
	if MsgType(d.scratch[2]) != want {
		return fmt.Errorf("%w: got %d, want %d", ErrBadType, d.scratch[2], want)
	}
	return nil
}

func (d *reader) uvarint(limit uint64, what string) (uint64, error) {
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		return 0, fmt.Errorf("wire: read %s: %w", what, err)
	}
	if v > limit {
		return 0, fmt.Errorf("%w: %s = %d > %d", ErrTooLarge, what, v, limit)
	}
	return v, nil
}

// str reads a length-prefixed string. The "<what> length" label of a
// bad length is built only on that error path.
func (d *reader) str(what string) (string, error) {
	n, err := binary.ReadUvarint(d.r)
	if err != nil {
		return "", fmt.Errorf("wire: read %s length: %w", what, err)
	}
	if n > maxStringLen {
		return "", fmt.Errorf("%w: %s length = %d > %d", ErrTooLarge, what, n, maxStringLen)
	}
	var buf []byte
	if n <= uint64(len(d.scratch)) {
		buf = d.scratch[:n]
	} else {
		buf = make([]byte, n)
	}
	if _, err := io.ReadFull(d.r, buf); err != nil {
		return "", fmt.Errorf("wire: read %s: %w", what, err)
	}
	if string(buf) != d.last {
		d.last = string(buf)
	}
	return d.last, nil
}

//sbcheck:hotpath
func (d *reader) prefix() (hashx.Prefix, error) {
	if _, err := io.ReadFull(d.r, d.scratch[:hashx.PrefixSize]); err != nil {
		return 0, fmt.Errorf("wire: read prefix: %w", err) //sbcheck:ignore hotalloc cold path: runs once per torn stream, not per record
	}
	return hashx.PrefixFromBytes(d.scratch[:hashx.PrefixSize])
}

//sbcheck:hotpath
func (d *reader) digest() (hashx.Digest, error) {
	var dg hashx.Digest
	if _, err := io.ReadFull(d.r, d.scratch[:hashx.DigestSize]); err != nil {
		return dg, fmt.Errorf("wire: read digest: %w", err) //sbcheck:ignore hotalloc cold path: runs once per torn stream, not per record
	}
	copy(dg[:], d.scratch[:])
	return dg, nil
}

// Encode writes the request to w.
func (m *DownloadRequest) Encode(w io.Writer) error {
	e := &writer{w: w}
	e.header(MsgDownloadRequest)
	e.str(m.ClientID)
	e.uvarint(uint64(len(m.States)))
	for _, s := range m.States {
		e.str(s.List)
		e.uvarint(uint64(s.LastChunk))
	}
	return e.err
}

// DecodeDownloadRequest reads a DownloadRequest from r.
func DecodeDownloadRequest(r io.Reader) (*DownloadRequest, error) {
	d := newReader(r)
	if err := d.header(MsgDownloadRequest); err != nil {
		return nil, err
	}
	m := &DownloadRequest{}
	var err error
	if m.ClientID, err = d.str("client id"); err != nil {
		return nil, err
	}
	n, err := d.uvarint(maxLists, "list count")
	if err != nil {
		return nil, err
	}
	m.States = make([]ListState, n)
	for i := range m.States {
		if m.States[i].List, err = d.str("list name"); err != nil {
			return nil, err
		}
		last, err := d.uvarint(1<<32-1, "last chunk")
		if err != nil {
			return nil, err
		}
		m.States[i].LastChunk = uint32(last)
	}
	return m, nil
}

// Encode writes the response to w.
func (m *DownloadResponse) Encode(w io.Writer) error {
	e := &writer{w: w}
	e.header(MsgDownloadResponse)
	e.uvarint(uint64(m.MinWaitSeconds))
	e.uvarint(uint64(len(m.Chunks)))
	for _, c := range m.Chunks {
		e.str(c.List)
		e.uvarint(uint64(c.Num))
		e.uvarint(uint64(c.Type))
		e.uvarint(uint64(len(c.Prefixes)))
		for _, p := range c.Prefixes {
			e.prefix(p)
		}
	}
	return e.err
}

// DecodeDownloadResponse reads a DownloadResponse from r.
func DecodeDownloadResponse(r io.Reader) (*DownloadResponse, error) {
	d := newReader(r)
	if err := d.header(MsgDownloadResponse); err != nil {
		return nil, err
	}
	m := &DownloadResponse{}
	wait, err := d.uvarint(1<<32-1, "min wait")
	if err != nil {
		return nil, err
	}
	m.MinWaitSeconds = uint32(wait)
	n, err := d.uvarint(maxChunksPerMsg, "chunk count")
	if err != nil {
		return nil, err
	}
	m.Chunks = make([]Chunk, n)
	for i := range m.Chunks {
		c := &m.Chunks[i]
		if c.List, err = d.str("list name"); err != nil {
			return nil, err
		}
		num, err := d.uvarint(1<<32-1, "chunk num")
		if err != nil {
			return nil, err
		}
		c.Num = uint32(num)
		typ, err := d.uvarint(uint64(ChunkSub), "chunk type")
		if err != nil {
			return nil, err
		}
		if ChunkType(typ) != ChunkAdd && ChunkType(typ) != ChunkSub {
			return nil, fmt.Errorf("wire: invalid chunk type %d", typ)
		}
		c.Type = ChunkType(typ)
		np, err := d.uvarint(maxPrefixesPerChunk, "prefix count")
		if err != nil {
			return nil, err
		}
		c.Prefixes = make([]hashx.Prefix, np)
		for j := range c.Prefixes {
			if c.Prefixes[j], err = d.prefix(); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// fullHashRequestBody writes the header-less request fields.
func (e *writer) fullHashRequestBody(m *FullHashRequest) {
	e.str(m.ClientID)
	e.uvarint(uint64(len(m.Prefixes)))
	for _, p := range m.Prefixes {
		e.prefix(p)
	}
}

// fullHashRequestBody reads the header-less request fields into m.
func (d *reader) fullHashRequestBody(m *FullHashRequest) error {
	var err error
	if m.ClientID, err = d.str("client id"); err != nil {
		return err
	}
	n, err := d.uvarint(maxPrefixesPerReq, "prefix count")
	if err != nil {
		return err
	}
	m.Prefixes = make([]hashx.Prefix, n)
	for i := range m.Prefixes {
		if m.Prefixes[i], err = d.prefix(); err != nil {
			return err
		}
	}
	return nil
}

// Encode writes the request to w.
func (m *FullHashRequest) Encode(w io.Writer) error {
	e := &writer{w: w}
	e.header(MsgFullHashRequest)
	e.fullHashRequestBody(m)
	return e.err
}

// DecodeFullHashRequest reads a FullHashRequest from r.
func DecodeFullHashRequest(r io.Reader) (*FullHashRequest, error) {
	d := newReader(r)
	if err := d.header(MsgFullHashRequest); err != nil {
		return nil, err
	}
	m := &FullHashRequest{}
	if err := d.fullHashRequestBody(m); err != nil {
		return nil, err
	}
	return m, nil
}

// fullHashResponseBody writes the header-less response fields.
func (e *writer) fullHashResponseBody(m *FullHashResponse) {
	e.uvarint(uint64(m.CacheSeconds))
	e.uvarint(uint64(len(m.Entries)))
	for _, fh := range m.Entries {
		e.str(fh.List)
		e.bytes(fh.Digest[:])
	}
}

// fullHashResponseBody reads the header-less response fields into m.
func (d *reader) fullHashResponseBody(m *FullHashResponse) error {
	cache, err := d.uvarint(1<<32-1, "cache seconds")
	if err != nil {
		return err
	}
	m.CacheSeconds = uint32(cache)
	n, err := d.uvarint(maxFullHashEntries, "entry count")
	if err != nil {
		return err
	}
	m.Entries = make([]FullHashEntry, n)
	for i := range m.Entries {
		if m.Entries[i].List, err = d.str("list name"); err != nil {
			return err
		}
		if m.Entries[i].Digest, err = d.digest(); err != nil {
			return err
		}
	}
	return nil
}

// Encode writes the response to w.
func (m *FullHashResponse) Encode(w io.Writer) error {
	e := &writer{w: w}
	e.header(MsgFullHashResponse)
	e.fullHashResponseBody(m)
	return e.err
}

// DecodeFullHashResponse reads a FullHashResponse from r.
func DecodeFullHashResponse(r io.Reader) (*FullHashResponse, error) {
	d := newReader(r)
	if err := d.header(MsgFullHashResponse); err != nil {
		return nil, err
	}
	m := &FullHashResponse{}
	if err := d.fullHashResponseBody(m); err != nil {
		return nil, err
	}
	return m, nil
}

// Encode writes the batch request to w. Batches larger than
// MaxBatchRequests are rejected here, where the caller can still react,
// rather than by the peer's decoder.
func (m *FullHashBatchRequest) Encode(w io.Writer) error {
	if len(m.Requests) > MaxBatchRequests {
		return fmt.Errorf("%w: batch request count = %d > %d", ErrTooLarge, len(m.Requests), MaxBatchRequests)
	}
	e := &writer{w: w}
	e.header(MsgFullHashBatchRequest)
	e.uvarint(uint64(len(m.Requests)))
	for i := range m.Requests {
		e.fullHashRequestBody(&m.Requests[i])
	}
	return e.err
}

// DecodeFullHashBatchRequest reads a FullHashBatchRequest from r.
func DecodeFullHashBatchRequest(r io.Reader) (*FullHashBatchRequest, error) {
	d := newReader(r)
	if err := d.header(MsgFullHashBatchRequest); err != nil {
		return nil, err
	}
	n, err := d.uvarint(MaxBatchRequests, "batch request count")
	if err != nil {
		return nil, err
	}
	m := &FullHashBatchRequest{Requests: make([]FullHashRequest, n)}
	for i := range m.Requests {
		if err := d.fullHashRequestBody(&m.Requests[i]); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Encode writes the batch response to w.
func (m *FullHashBatchResponse) Encode(w io.Writer) error {
	if len(m.Responses) > MaxBatchRequests {
		return fmt.Errorf("%w: batch response count = %d > %d", ErrTooLarge, len(m.Responses), MaxBatchRequests)
	}
	e := &writer{w: w}
	e.header(MsgFullHashBatchResponse)
	e.uvarint(uint64(len(m.Responses)))
	for i := range m.Responses {
		e.fullHashResponseBody(&m.Responses[i])
	}
	return e.err
}

// DecodeFullHashBatchResponse reads a FullHashBatchResponse from r.
func DecodeFullHashBatchResponse(r io.Reader) (*FullHashBatchResponse, error) {
	d := newReader(r)
	if err := d.header(MsgFullHashBatchResponse); err != nil {
		return nil, err
	}
	n, err := d.uvarint(MaxBatchRequests, "batch response count")
	if err != nil {
		return nil, err
	}
	m := &FullHashBatchResponse{Responses: make([]FullHashResponse, n)}
	for i := range m.Responses {
		if err := d.fullHashResponseBody(&m.Responses[i]); err != nil {
			return nil, err
		}
	}
	return m, nil
}
