package wire

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"sbprivacy/internal/hashx"
)

func TestDownloadRequestRoundTrip(t *testing.T) {
	t.Parallel()
	in := &DownloadRequest{
		ClientID: "cookie-123",
		States: []ListState{
			{List: "goog-malware-shavar", LastChunk: 17},
			{List: "googpub-phish-shavar", LastChunk: 0},
		},
	}
	var buf bytes.Buffer
	if err := in.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	out, err := DecodeDownloadRequest(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestDownloadResponseRoundTrip(t *testing.T) {
	t.Parallel()
	in := &DownloadResponse{
		MinWaitSeconds: 1800,
		Chunks: []Chunk{
			{List: "goog-malware-shavar", Num: 18, Type: ChunkAdd,
				Prefixes: []hashx.Prefix{0xe70ee6d1, 0x1d13ba6a}},
			{List: "goog-malware-shavar", Num: 19, Type: ChunkSub,
				Prefixes: []hashx.Prefix{0xe70ee6d1}},
			{List: "ydx-porno-hosts-top-shavar", Num: 1, Type: ChunkAdd,
				Prefixes: nil},
		},
	}
	var buf bytes.Buffer
	if err := in.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	out, err := DecodeDownloadResponse(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if out.MinWaitSeconds != in.MinWaitSeconds || len(out.Chunks) != len(in.Chunks) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	for i := range in.Chunks {
		if in.Chunks[i].List != out.Chunks[i].List ||
			in.Chunks[i].Num != out.Chunks[i].Num ||
			in.Chunks[i].Type != out.Chunks[i].Type ||
			len(in.Chunks[i].Prefixes) != len(out.Chunks[i].Prefixes) {
			t.Errorf("chunk %d mismatch: %+v vs %+v", i, in.Chunks[i], out.Chunks[i])
		}
	}
}

func TestFullHashRoundTrip(t *testing.T) {
	t.Parallel()
	req := &FullHashRequest{
		ClientID: "cookie-xyz",
		Prefixes: []hashx.Prefix{0xe70ee6d1, 0x33a02ef5, 0x1d13ba6a},
	}
	var buf bytes.Buffer
	if err := req.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	gotReq, err := DecodeFullHashRequest(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(req, gotReq) {
		t.Errorf("request mismatch: %+v vs %+v", req, gotReq)
	}

	resp := &FullHashResponse{
		CacheSeconds: 300,
		Entries: []FullHashEntry{
			{List: "googpub-phish-shavar", Digest: hashx.Sum("petsymposium.org/2016/cfp.php")},
			{List: "goog-malware-shavar", Digest: hashx.Sum("xhamster.com/")},
		},
	}
	buf.Reset()
	if err := resp.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	gotResp, err := DecodeFullHashResponse(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(resp, gotResp) {
		t.Errorf("response mismatch: %+v vs %+v", resp, gotResp)
	}
}

func TestDecodeRejectsBadHeader(t *testing.T) {
	t.Parallel()
	good := &FullHashRequest{ClientID: "c", Prefixes: []hashx.Prefix{1}}
	var buf bytes.Buffer
	if err := good.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	raw := buf.Bytes()

	badMagic := append([]byte{}, raw...)
	badMagic[0] = 'X'
	if _, err := DecodeFullHashRequest(bytes.NewReader(badMagic)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: err = %v, want ErrBadMagic", err)
	}

	badVersion := append([]byte{}, raw...)
	badVersion[1] = 99
	if _, err := DecodeFullHashRequest(bytes.NewReader(badVersion)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: err = %v, want ErrBadVersion", err)
	}

	wrongType := append([]byte{}, raw...)
	wrongType[2] = byte(MsgDownloadRequest)
	if _, err := DecodeFullHashRequest(bytes.NewReader(wrongType)); !errors.Is(err, ErrBadType) {
		t.Errorf("wrong type: err = %v, want ErrBadType", err)
	}
}

func TestDecodeRejectsOversizedFields(t *testing.T) {
	t.Parallel()
	// Hand-craft a FullHashRequest claiming 10000 prefixes.
	var buf bytes.Buffer
	buf.Write([]byte{Magic, Version, byte(MsgFullHashRequest)})
	buf.WriteByte(1) // client id length
	buf.WriteByte('c')
	buf.Write([]byte{0x90, 0x4e}) // uvarint 10000
	if _, err := DecodeFullHashRequest(&buf); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized prefix count: err = %v, want ErrTooLarge", err)
	}
}

// TestStringLengthsRoundTrip covers both of the reader's string paths
// (through its scratch array, and a buffer of its own past it) and the
// reuse of a repeated string: every length up to maxStringLen survives,
// in any order, and one past it is refused.
func TestStringLengthsRoundTrip(t *testing.T) {
	t.Parallel()
	var resp FullHashResponse
	for _, n := range []int{0, 1, 127, 128, 128, 129, 129, 1, maxStringLen, maxStringLen, 0} {
		resp.Entries = append(resp.Entries, FullHashEntry{List: strings.Repeat(string(rune('a'+n%26)), n)})
	}
	var buf bytes.Buffer
	if err := resp.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeFullHashResponse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got.Entries, resp.Entries) {
		t.Errorf("entries differ after a round trip")
	}

	buf.Reset()
	req := FullHashRequest{ClientID: strings.Repeat("x", maxStringLen+1)}
	if err := req.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := DecodeFullHashRequest(&buf); !errors.Is(err, ErrTooLarge) {
		t.Errorf("client id of %d bytes: err = %v, want ErrTooLarge", maxStringLen+1, err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	t.Parallel()
	resp := &DownloadResponse{
		MinWaitSeconds: 60,
		Chunks: []Chunk{{List: "l", Num: 1, Type: ChunkAdd,
			Prefixes: []hashx.Prefix{1, 2, 3}}},
	}
	var buf bytes.Buffer
	if err := resp.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	raw := buf.Bytes()
	// Every strict prefix of the message must fail to decode, not hang or
	// panic.
	for cut := 0; cut < len(raw); cut++ {
		if _, err := DecodeDownloadResponse(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
}

func TestDecodeRejectsBadChunkType(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	buf.Write([]byte{Magic, Version, byte(MsgDownloadResponse)})
	buf.WriteByte(0) // min wait
	buf.WriteByte(1) // one chunk
	buf.WriteByte(1) // list name len
	buf.WriteByte('l')
	buf.WriteByte(1) // chunk num
	buf.WriteByte(9) // invalid chunk type
	if _, err := DecodeDownloadResponse(&buf); err == nil {
		t.Error("invalid chunk type decoded successfully")
	}
}

// TestRoundTripProperty: arbitrary valid messages survive encode/decode.
func TestRoundTripProperty(t *testing.T) {
	t.Parallel()
	f := func(id string, rawPrefixes []uint32) bool {
		if len(id) > 512 {
			id = id[:512]
		}
		if len(rawPrefixes) > 200 {
			rawPrefixes = rawPrefixes[:200]
		}
		prefixes := make([]hashx.Prefix, len(rawPrefixes))
		for i, v := range rawPrefixes {
			prefixes[i] = hashx.Prefix(v)
		}
		in := &FullHashRequest{ClientID: id, Prefixes: prefixes}
		var buf bytes.Buffer
		if err := in.Encode(&buf); err != nil {
			return false
		}
		out, err := DecodeFullHashRequest(&buf)
		if err != nil {
			return false
		}
		if out.ClientID != in.ClientID || len(out.Prefixes) != len(in.Prefixes) {
			return false
		}
		for i := range in.Prefixes {
			if in.Prefixes[i] != out.Prefixes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDecodeGarbageNeverPanics feeds random bytes to every decoder.
func TestDecodeGarbageNeverPanics(t *testing.T) {
	t.Parallel()
	f := func(garbage []byte) bool {
		r1 := bytes.NewReader(garbage)
		_, _ = DecodeDownloadRequest(r1)
		r2 := bytes.NewReader(garbage)
		_, _ = DecodeDownloadResponse(r2)
		r3 := bytes.NewReader(garbage)
		_, _ = DecodeFullHashRequest(r3)
		r4 := bytes.NewReader(garbage)
		_, _ = DecodeFullHashResponse(r4)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
