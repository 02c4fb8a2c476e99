package sbserver

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/wire"
)

// mustClose closes the server at test cleanup, failing the test on a
// noted pipeline error rather than discarding it (the flusherr
// contract).
func mustClose(t testing.TB, s *Server) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Errorf("server close: %v", err)
	}
}

// TestFullHashesRejectsOversizedRequests is the regression test for
// the serve-everything-record-a-clamp bug: FullHashes used to answer
// every requested prefix but clamp the recorded probe to the wire
// limits, so a LocalTransport caller could make served traffic diverge
// from the retained log. Oversized requests are now rejected outright —
// the same verdict the HTTP decoder gives them — and nothing is
// recorded or served.
func TestFullHashesRejectsOversizedRequests(t *testing.T) {
	s := New()
	defer mustClose(t, s)
	if err := s.CreateList("l", ""); err != nil {
		t.Fatalf("CreateList: %v", err)
	}

	longID := strings.Repeat("c", wire.MaxProbeClientIDBytes+1)
	if _, err := s.FullHashes(&wire.FullHashRequest{ClientID: longID}); !errors.Is(err, wire.ErrTooLarge) {
		t.Errorf("oversized client id: err = %v, want ErrTooLarge", err)
	}

	manyPrefixes := make([]hashx.Prefix, wire.MaxProbePrefixes+1)
	for i := range manyPrefixes {
		manyPrefixes[i] = hashx.Prefix(i)
	}
	if _, err := s.FullHashes(&wire.FullHashRequest{ClientID: "c", Prefixes: manyPrefixes}); !errors.Is(err, wire.ErrTooLarge) {
		t.Errorf("oversized prefix set: err = %v, want ErrTooLarge", err)
	}

	// The rejected requests must not have reached the probe log: the
	// provider's vantage records served traffic, and nothing was served.
	if probes := s.Probes(); len(probes) != 0 {
		t.Errorf("rejected requests were recorded: %+v", probes)
	}

	// A request exactly at the limits is served and recorded intact.
	atLimit := &wire.FullHashRequest{
		ClientID: strings.Repeat("c", wire.MaxProbeClientIDBytes),
		Prefixes: manyPrefixes[:wire.MaxProbePrefixes],
	}
	if _, err := s.FullHashes(atLimit); err != nil {
		t.Fatalf("at-limit request rejected: %v", err)
	}
	probes := s.Probes()
	if len(probes) != 1 || probes[0].ClientID != atLimit.ClientID || len(probes[0].Prefixes) != wire.MaxProbePrefixes {
		t.Errorf("at-limit probe distorted: %d probes", len(probes))
	}
}

// TestFullHashesBatchRejectsBeforeServing: a batch containing an
// oversized sub-request is rejected wholesale, before any sub-request
// is served or recorded — otherwise the retained log would hold probes
// for answers the caller never received.
func TestFullHashesBatchRejectsBeforeServing(t *testing.T) {
	s := New()
	defer mustClose(t, s)
	batch := []*wire.FullHashRequest{
		{ClientID: "ok", Prefixes: []hashx.Prefix{1}},
		{ClientID: strings.Repeat("c", wire.MaxProbeClientIDBytes+1)},
	}
	if _, err := s.FullHashesBatch(batch); !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("batch with oversized entry: err = %v, want ErrTooLarge", err)
	}
	if probes := s.Probes(); len(probes) != 0 {
		t.Errorf("rejected batch recorded %d probes: %+v", len(probes), probes)
	}
}

// TestHandlerCapsRequestBodies: each endpoint bounds its request body
// at the wire-format maximum, so an attacker cannot stream gigabytes
// at a decoder; the decode fails and the handler answers 400.
func TestHandlerCapsRequestBodies(t *testing.T) {
	s := New()
	defer mustClose(t, s)
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	encode := func(m interface{ Encode(io.Writer) error }) []byte {
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatalf("Encode: %v", err)
		}
		return buf.Bytes()
	}
	req := wire.FullHashRequest{ClientID: "padded", Prefixes: []hashx.Prefix{1, 2}}
	for path, tc := range map[string]struct {
		limit int
		valid []byte // a message the endpoint would answer 200 on its own
	}{
		PathDownloads:     {wire.MaxDownloadRequestWireBytes, nil},
		PathFullHash:      {wire.MaxFullHashRequestWireBytes, encode(&req)},
		PathFullHashBatch: {wire.MaxFullHashBatchRequestWireBytes, encode(&wire.FullHashBatchRequest{Requests: []wire.FullHashRequest{req}})},
	} {
		// A valid header followed by padding far past the cap: the body
		// reader must cut the request off rather than buffer it all.
		header := make([]byte, tc.limit+4096)
		header[0] = wire.Magic
		header[1] = wire.Version
		bodies := map[string][]byte{"valid header": header}
		if tc.valid != nil {
			// A whole valid message padded past the cap: decoding only
			// its prefix would answer 200 and record a probe, so the
			// body must be refused whole.
			bodies["valid message"] = append(append([]byte(nil), tc.valid...), make([]byte, tc.limit)...)
		}
		for name, body := range bodies {
			before := s.ProbeStats().Received
			resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("POST %s: %v", path, err)
			}
			resp.Body.Close() //nolint:errcheck // test response
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST %s with %s padded to %d bytes: status %d, want 400", path, name, len(body), resp.StatusCode)
			}
			if after := s.ProbeStats().Received; after != before {
				t.Errorf("POST %s with %s padded to %d bytes: probes received %d -> %d, want unchanged", path, name, len(body), before, after)
			}
		}
	}
}
