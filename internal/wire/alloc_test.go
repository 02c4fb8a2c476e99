package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"testing"

	"sbprivacy/internal/hashx"
)

// TestWireHotPathAllocs is the runtime half of the hotalloc gate on the
// wire codec's fixed-size field helpers. Before the scratch-buffer
// refactor every helper cost exactly 1 alloc/op: the local array backing
// the field escaped through the io.Writer/io.Reader interface call.
// With the scratch arrays on writer/reader the measured counts are 0,
// and this test pins them there (measured-or-better: the gate is the
// count at the time it landed, so a regression reads as a failure, not
// a new baseline).
func TestWireHotPathAllocs(t *testing.T) {
	var buf bytes.Buffer
	buf.Grow(1 << 16)
	e := &writer{w: &buf}

	writerGates := []struct {
		name string
		op   func()
	}{
		{"header", func() { e.header(MsgFullHashRequest) }},
		{"uvarint", func() { e.uvarint(1 << 40) }},
		{"prefix", func() { e.prefix(hashx.Prefix(0xdeadbeef)) }},
	}
	for _, g := range writerGates {
		buf.Reset()
		e.err = nil
		if allocs := testing.AllocsPerRun(1000, g.op); allocs != 0 {
			t.Errorf("writer.%s: %v allocs/op, want 0", g.name, allocs)
		}
	}
	if e.err != nil {
		t.Fatalf("writer error: %v", e.err)
	}

	// Reader side: replay a fixed byte stream through a reused
	// bufio.Reader so only the helper under test can allocate.
	raw := make([]byte, hashx.DigestSize)
	for i := range raw {
		raw[i] = byte(i)
	}
	var src bytes.Reader
	br := bufio.NewReader(&src)
	d := &reader{r: br}

	readerGates := []struct {
		name string
		op   func() error
	}{
		{"prefix", func() error { _, err := d.prefix(); return err }},
		{"digest", func() error { _, err := d.digest(); return err }},
	}
	for _, g := range readerGates {
		g := g
		allocs := testing.AllocsPerRun(1000, func() {
			src.Reset(raw)
			br.Reset(&src)
			if err := g.op(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("reader.%s: %v allocs/op, want 0", g.name, allocs)
		}
	}
}

// TestWireDecodeRoundTripAfterScratch guards the refactor itself: the
// scratch buffers are shared across fields, so a decode that interleaves
// header, string, prefix and digest reads must still reassemble the
// exact message.
func TestWireDecodeRoundTripAfterScratch(t *testing.T) {
	resp := &FullHashResponse{
		CacheSeconds: 300,
		Entries: []FullHashEntry{
			{List: "goog-malware-shavar", Digest: hashx.Sum("evil.example/")},
			{List: "googpub-phish-shavar", Digest: hashx.Sum("phish.example/")},
		},
	}
	var buf bytes.Buffer
	if err := resp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFullHashResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.CacheSeconds != resp.CacheSeconds || len(got.Entries) != len(resp.Entries) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range got.Entries {
		if got.Entries[i] != resp.Entries[i] {
			t.Errorf("entry %d: got %+v, want %+v", i, got.Entries[i], resp.Entries[i])
		}
	}
}

// TestProbeRecordHotPathAllocs is the runtime half of the hotalloc gate
// on the probe-record codec: the store encodes every probe it observes
// with AppendProbeRecord and every segment scan goes through
// ProbeFrame.Parse, so neither may allocate — the encoder into a buffer
// that has room for the frame, the parser ever.
func TestProbeRecordHotPathAllocs(t *testing.T) {
	rec := ProbeRecord{UnixNano: 1457000000123456789, ClientID: "cookie-1",
		Prefixes: []hashx.Prefix{0xe70ee6d1, 1, 2}}
	buf := make([]byte, 0, 256)
	if allocs := testing.AllocsPerRun(1000, func() {
		var err error
		if buf, err = AppendProbeRecord(buf[:0], &rec); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("AppendProbeRecord: %v allocs/op, want 0", allocs)
	}

	var fr ProbeFrame
	prefixes := make([]hashx.Prefix, 0, len(rec.Prefixes))
	if allocs := testing.AllocsPerRun(1000, func() {
		n, err := fr.Parse(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("Parse = %d, %v", n, err)
		}
		prefixes = fr.AppendPrefixes(prefixes[:0])
	}); allocs != 0 {
		t.Errorf("ProbeFrame.Parse + AppendPrefixes: %v allocs/op, want 0", allocs)
	}
	if fr.UnixNano != rec.UnixNano || string(fr.ClientID) != rec.ClientID || len(prefixes) != len(rec.Prefixes) {
		t.Errorf("frame (%d, %q, %v), want %+v", fr.UnixNano, fr.ClientID, prefixes, rec)
	}
}

// TestFullHashDecodeAllocs gates the decoders on a message held whole
// in memory: a *bytes.Reader is read as it is, not through a new
// bufio.Reader, and a list name repeated across a response's entries is
// allocated once. So a 64-entry one-list response allocates exactly as
// much as a 1-entry one, and a 64-request batch pays only each
// sub-request's cookie and prefix slice. The pins are the counts
// measured when the gate landed (measured-or-better).
func TestFullHashDecodeAllocs(t *testing.T) {
	resp := func(n int) []byte {
		m := FullHashResponse{CacheSeconds: 300, Entries: make([]FullHashEntry, n)}
		for i := range m.Entries {
			m.Entries[i] = FullHashEntry{List: "goog-malware-shavar", Digest: hashx.Sum(fmt.Sprintf("e%d.example/", i))}
		}
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	decodeAllocs := func(raw []byte, decode func(*bytes.Reader) error) float64 {
		var src bytes.Reader
		return testing.AllocsPerRun(200, func() {
			src.Reset(raw)
			if err := decode(&src); err != nil {
				t.Fatal(err)
			}
		})
	}
	var last *FullHashResponse
	decodeResp := func(r *bytes.Reader) (err error) {
		last, err = DecodeFullHashResponse(r)
		return err
	}

	const respAllocs = 4 // reader, response, entry slice, the one list name
	one := decodeAllocs(resp(1), decodeResp)
	many := decodeAllocs(resp(64), decodeResp)
	if one != respAllocs || many != respAllocs {
		t.Errorf("FullHashResponse decode: 1 entry %v allocs, 64 entries %v allocs, want %d for both", one, many, respAllocs)
	}
	if len(last.Entries) != 64 {
		t.Fatalf("decoded %d entries, want 64", len(last.Entries))
	}
	for i, e := range last.Entries {
		if e.List != "goog-malware-shavar" || e.Digest != hashx.Sum(fmt.Sprintf("e%d.example/", i)) {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}

	batch := FullHashBatchRequest{Requests: make([]FullHashRequest, MaxBatchRequests)}
	for i := range batch.Requests {
		batch.Requests[i] = FullHashRequest{ClientID: fmt.Sprintf("cookie-%d", i),
			Prefixes: []hashx.Prefix{hashx.Prefix(i), hashx.Prefix(i + 1)}}
	}
	var buf bytes.Buffer
	if err := batch.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	const batchConst = 3 // reader, batch, request slice
	got := decodeAllocs(buf.Bytes(), func(r *bytes.Reader) error {
		_, err := DecodeFullHashBatchRequest(r)
		return err
	})
	if want := float64(2*MaxBatchRequests + batchConst); got > want {
		t.Errorf("FullHashBatchRequest decode of %d requests: %v allocs, want <= %v (2 per request + %d)",
			MaxBatchRequests, got, want, batchConst)
	}
}
