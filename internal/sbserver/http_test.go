package sbserver

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/wire"
)

func httpFixture(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New()
	if err := s.CreateList("goog-malware-shavar", "malware"); err != nil {
		t.Fatalf("CreateList: %v", err)
	}
	if err := s.AddExpressions("goog-malware-shavar", []string{"evil.example/"}); err != nil {
		t.Fatalf("AddExpressions: %v", err)
	}
	ts := httptest.NewServer(Handler(s))
	t.Cleanup(ts.Close)
	return s, ts
}

func TestHandlerRejectsGET(t *testing.T) {
	t.Parallel()
	_, ts := httpFixture(t)
	for _, path := range []string{PathDownloads, PathFullHash, PathFullHashBatch} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close() //nolint:errcheck // test
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s status = %d", path, resp.StatusCode)
		}
	}
}

func TestHandlerRejectsGarbageBody(t *testing.T) {
	t.Parallel()
	_, ts := httpFixture(t)
	for _, path := range []string{PathDownloads, PathFullHash, PathFullHashBatch} {
		resp, err := ts.Client().Post(ts.URL+path, "application/octet-stream",
			strings.NewReader("not the protocol"))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close() //nolint:errcheck // test
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("garbage POST %s status = %d", path, resp.StatusCode)
		}
	}
}

func TestHandlerUnknownListIs404(t *testing.T) {
	t.Parallel()
	_, ts := httpFixture(t)
	var body bytes.Buffer
	req := &wire.DownloadRequest{ClientID: "c", States: []wire.ListState{{List: "ghost"}}}
	if err := req.Encode(&body); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	resp, err := ts.Client().Post(ts.URL+PathDownloads, "application/octet-stream", &body)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close() //nolint:errcheck // test
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown list status = %d", resp.StatusCode)
	}
}

func TestHandlerServesBinaryResponses(t *testing.T) {
	t.Parallel()
	s, ts := httpFixture(t)

	// Download.
	var body bytes.Buffer
	dreq := &wire.DownloadRequest{ClientID: "c", States: []wire.ListState{{List: "goog-malware-shavar"}}}
	if err := dreq.Encode(&body); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	resp, err := ts.Client().Post(ts.URL+PathDownloads, "application/octet-stream", &body)
	if err != nil {
		t.Fatalf("POST downloads: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("content type = %q", ct)
	}
	dresp, err := wire.DecodeDownloadResponse(resp.Body)
	resp.Body.Close() //nolint:errcheck // test
	if err != nil {
		t.Fatalf("decode download response: %v", err)
	}
	if len(dresp.Chunks) != 1 || len(dresp.Chunks[0].Prefixes) != 1 {
		t.Fatalf("chunks = %+v", dresp.Chunks)
	}

	// FullHash: probe must be logged with the wire client id.
	body.Reset()
	freq := &wire.FullHashRequest{ClientID: "http-cookie", Prefixes: []hashx.Prefix{hashx.SumPrefix("evil.example/")}}
	if err := freq.Encode(&body); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	resp, err = ts.Client().Post(ts.URL+PathFullHash, "application/octet-stream", &body)
	if err != nil {
		t.Fatalf("POST gethash: %v", err)
	}
	fresp, err := wire.DecodeFullHashResponse(bytes.NewReader(wholeBody(t, resp)))
	if err != nil {
		t.Fatalf("decode fullhash response: %v", err)
	}
	if len(fresp.Entries) != 1 || fresp.Entries[0].Digest != hashx.Sum("evil.example/") {
		t.Fatalf("entries = %+v", fresp.Entries)
	}
	probes := s.Probes()
	if len(probes) != 1 || probes[0].ClientID != "http-cookie" {
		t.Errorf("probes = %+v", probes)
	}
}

// TestHandlerBatchFullHash drives the batch endpoint end to end: several
// full-hash requests in one POST, one response per request, one probe
// per request in the provider's log.
func TestHandlerBatchFullHash(t *testing.T) {
	t.Parallel()
	s, ts := httpFixture(t)
	batch := wire.FullHashBatchRequest{Requests: []wire.FullHashRequest{
		{ClientID: "alpha", Prefixes: []hashx.Prefix{hashx.SumPrefix("evil.example/")}},
		{ClientID: "beta", Prefixes: []hashx.Prefix{0x01020304}}, // miss
	}}
	var body bytes.Buffer
	if err := batch.Encode(&body); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	resp, err := ts.Client().Post(ts.URL+PathFullHashBatch, "application/octet-stream", &body)
	if err != nil {
		t.Fatalf("POST batch: %v", err)
	}
	decoded, err := wire.DecodeFullHashBatchResponse(resp.Body)
	resp.Body.Close() //nolint:errcheck // test
	if err != nil {
		t.Fatalf("decode batch response: %v", err)
	}
	if len(decoded.Responses) != 2 {
		t.Fatalf("responses = %d, want 2", len(decoded.Responses))
	}
	if len(decoded.Responses[0].Entries) != 1 ||
		decoded.Responses[0].Entries[0].Digest != hashx.Sum("evil.example/") {
		t.Errorf("responses[0] = %+v", decoded.Responses[0])
	}
	if len(decoded.Responses[1].Entries) != 0 {
		t.Errorf("responses[1] = %+v, want miss", decoded.Responses[1])
	}
	probes := s.Probes()
	if len(probes) != 2 || probes[0].ClientID != "alpha" || probes[1].ClientID != "beta" {
		t.Errorf("probes = %+v", probes)
	}

	// A full frame of hits: its response is past net/http's 2 KiB
	// chunking threshold, yet it must still go out as one body with a
	// Content-Length.
	full := wire.FullHashBatchRequest{Requests: make([]wire.FullHashRequest, wire.MaxBatchRequests)}
	for i := range full.Requests {
		full.Requests[i] = wire.FullHashRequest{ClientID: "gamma", Prefixes: []hashx.Prefix{hashx.SumPrefix("evil.example/")}}
	}
	body.Reset()
	if err := full.Encode(&body); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	resp, err = ts.Client().Post(ts.URL+PathFullHashBatch, "application/octet-stream", &body)
	if err != nil {
		t.Fatalf("POST batch: %v", err)
	}
	raw := wholeBody(t, resp)
	if len(raw) <= 2048 {
		t.Fatalf("full-frame response is %d bytes, want > 2048", len(raw))
	}
	if decoded, err = wire.DecodeFullHashBatchResponse(bytes.NewReader(raw)); err != nil {
		t.Fatalf("decode batch response: %v", err)
	}
	for i, r := range decoded.Responses {
		if len(r.Entries) != 1 || r.Entries[0].Digest != hashx.Sum("evil.example/") {
			t.Fatalf("responses[%d] = %+v", i, r)
		}
	}
}

// wholeBody reads and closes resp.Body, and fails the test unless the
// body was sent in one piece: an explicit Content-Length equal to its
// length and no chunked transfer encoding.
func wholeBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck // test
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.ContentLength != int64(len(raw)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("Content-Length %d, Transfer-Encoding %q for a %d-byte body; want the length and no chunking",
			resp.ContentLength, resp.TransferEncoding, len(raw))
	}
	return raw
}

func TestHandlerUnknownPathIs404(t *testing.T) {
	t.Parallel()
	_, ts := httpFixture(t)
	resp, err := ts.Client().Post(ts.URL+"/nonsense", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // test
	resp.Body.Close()              //nolint:errcheck // test
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d", resp.StatusCode)
	}
}
