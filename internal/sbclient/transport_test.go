package sbclient

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/wire"
)

// TestHTTPTransportBoundsFullHashResponse: a provider that answers
// /gethash with a valid header and then more bytes than any valid
// FullHashResponse can hold gets an error wrapping wire.ErrTooLarge,
// after the client read no more than the bound plus one byte.
func TestHTTPTransportBoundsFullHashResponse(t *testing.T) {
	t.Parallel()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write([]byte{wire.Magic, wire.Version, byte(wire.MsgFullHashResponse)}) //nolint:errcheck // test server
		pad := make([]byte, 64<<10)
		for left := wire.MaxFullHashResponseWireBytes + 1; left > 0; left -= len(pad) {
			if _, err := w.Write(pad[:min(left, len(pad))]); err != nil {
				return // the client hung up once it had read past the bound
			}
		}
	}))
	defer ts.Close()

	tp := HTTPTransport{BaseURL: ts.URL, Client: ts.Client()}
	req := &wire.FullHashRequest{ClientID: "c", Prefixes: []hashx.Prefix{1}}
	resp, err := tp.FullHashes(context.Background(), req)
	if !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("FullHashes over a %d-byte bound = %+v, %v; want an error wrapping wire.ErrTooLarge",
			wire.MaxFullHashResponseWireBytes, resp, err)
	}
}

// httpBenchFixture serves one list of 64 planted expressions through
// sbserver.Handler on a loopback httptest server, and returns a
// keep-alive HTTPTransport to it and one full-hash request per planted
// prefix, each carrying the planted prefix and one that misses.
func httpBenchFixture(b *testing.B) (HTTPTransport, []*wire.FullHashRequest) {
	b.Helper()
	srv := sbserver.New(sbserver.WithProbeLogLimit(1024))
	b.Cleanup(func() {
		if err := srv.Close(); err != nil {
			b.Errorf("server Close: %v", err)
		}
	})
	if err := srv.CreateList(testList, "malware"); err != nil {
		b.Fatalf("CreateList: %v", err)
	}
	exprs := make([]string, wire.MaxBatchRequests)
	reqs := make([]*wire.FullHashRequest, len(exprs))
	for i := range exprs {
		exprs[i] = fmt.Sprintf("evil%02d.example/", i)
		reqs[i] = &wire.FullHashRequest{
			ClientID: fmt.Sprintf("bench-%02d", i),
			Prefixes: []hashx.Prefix{hashx.SumPrefix(exprs[i]), hashx.Prefix(0x01020304 + i)},
		}
	}
	if err := srv.AddExpressions(testList, exprs); err != nil {
		b.Fatalf("AddExpressions: %v", err)
	}
	ts := httptest.NewServer(sbserver.Handler(srv))
	b.Cleanup(ts.Close)
	return HTTPTransport{BaseURL: ts.URL, Client: ts.Client()}, reqs
}

// BenchmarkHTTPFullHash times one /gethash round trip over loopback:
// client encode, HTTP hop, handler, lookup, probe enqueue, response
// read and decode. Run with -benchmem for both ends' allocations.
func BenchmarkHTTPFullHash(b *testing.B) {
	tp, reqs := httpBenchFixture(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := tp.FullHashes(ctx, reqs[i%len(reqs)])
		if err != nil || len(resp.Entries) != 1 {
			b.Fatalf("FullHashes = %+v, %v", resp, err)
		}
	}
}

// BenchmarkHTTPFullHashBatch times one 64-request /gethash/batch round
// trip over loopback, the frame the batch workloads send.
func BenchmarkHTTPFullHashBatch(b *testing.B) {
	tp, reqs := httpBenchFixture(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resps, err := tp.FullHashesBatch(ctx, reqs)
		if err != nil || len(resps) != len(reqs) {
			b.Fatalf("FullHashesBatch = %d responses, %v", len(resps), err)
		}
	}
}
