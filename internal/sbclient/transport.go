package sbclient

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/wire"
)

// LocalTransport wires a client to an in-process server: the transport
// used by tests, experiments and benchmarks.
type LocalTransport struct {
	Server *sbserver.Server
}

var _ Transport = LocalTransport{}

// Download implements Transport.
func (t LocalTransport) Download(ctx context.Context, req *wire.DownloadRequest) (*wire.DownloadResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return t.Server.Download(req)
}

// FullHashes implements Transport.
func (t LocalTransport) FullHashes(ctx context.Context, req *wire.FullHashRequest) (*wire.FullHashResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return t.Server.FullHashes(req)
}

// FullHashesBatch issues several full-hash requests in one call.
func (t LocalTransport) FullHashesBatch(ctx context.Context, reqs []*wire.FullHashRequest) ([]*wire.FullHashResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return t.Server.FullHashesBatch(reqs)
}

// StatusError is the typed error HTTPTransport returns for a non-200
// HTTP response. It preserves the status code and the server's
// Retry-After hint so a retry layer (RetryTransport) can distinguish
// overload (429, 5xx) from a client mistake (other 4xx) and pace its
// retries the way the server asked.
type StatusError struct {
	// Path is the endpoint that answered, e.g. "/safebrowsing/gethash".
	Path string
	// StatusCode is the HTTP status of the response.
	StatusCode int
	// RetryAfter is the parsed Retry-After delay, zero when the header
	// was absent or unparseable. Only delay-seconds form is recognized.
	RetryAfter time.Duration
	// Body holds up to the first 512 bytes of the response body.
	Body string
}

// Error implements the error interface.
func (e *StatusError) Error() string {
	return fmt.Sprintf("sbclient: %s returned %d: %s", e.Path, e.StatusCode, e.Body)
}

// HTTPTransport talks to a remote server over HTTP using the binary wire
// format. A full-hash response is read whole, at most
// wire.MaxFullHashResponseWireBytes (or the batch bound) of it, before
// it is decoded; a longer one fails with an error wrapping
// wire.ErrTooLarge. A download response is decoded as it streams and
// has no such bound.
type HTTPTransport struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8045".
	BaseURL string
	// Client is the HTTP client; http.DefaultClient when nil.
	Client *http.Client
}

var _ Transport = HTTPTransport{}

func (t HTTPTransport) httpClient() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

func (t HTTPTransport) post(ctx context.Context, path string, encode func(io.Writer) error) (io.ReadCloser, error) {
	var body bytes.Buffer
	if err := encode(&body); err != nil {
		return nil, fmt.Errorf("sbclient: encode request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.BaseURL+path, &body)
	if err != nil {
		return nil, fmt.Errorf("sbclient: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := t.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("sbclient: post %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close() //nolint:errcheck // already failing
		return nil, &StatusError{
			Path:       path,
			StatusCode: resp.StatusCode,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
			Body:       string(bytes.TrimSpace(msg)),
		}
	}
	return resp.Body, nil
}

// parseRetryAfter parses the delay-seconds form of a Retry-After header.
// HTTP-date form and garbage both yield zero: the retry layer then falls
// back to its own backoff schedule.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Download implements Transport.
func (t HTTPTransport) Download(ctx context.Context, req *wire.DownloadRequest) (*wire.DownloadResponse, error) {
	body, err := t.post(ctx, sbserver.PathDownloads, req.Encode)
	if err != nil {
		return nil, err
	}
	defer body.Close() //nolint:errcheck // read-side close
	return wire.DecodeDownloadResponse(body)
}

// FullHashes implements Transport.
func (t HTTPTransport) FullHashes(ctx context.Context, req *wire.FullHashRequest) (*wire.FullHashResponse, error) {
	buf, err := t.postWhole(ctx, sbserver.PathFullHash, req.Encode, wire.MaxFullHashResponseWireBytes)
	if err != nil {
		return nil, err
	}
	defer putResp(buf)
	return wire.DecodeFullHashResponse(buf)
}

// FullHashesBatch issues several full-hash requests against the
// server's batch endpoint, transparently splitting into frames of at
// most wire.MaxBatchRequests per HTTP round trip.
func (t HTTPTransport) FullHashesBatch(ctx context.Context, reqs []*wire.FullHashRequest) ([]*wire.FullHashResponse, error) {
	out := make([]*wire.FullHashResponse, 0, len(reqs))
	for start := 0; start < len(reqs); start += wire.MaxBatchRequests {
		end := start + wire.MaxBatchRequests
		if end > len(reqs) {
			end = len(reqs)
		}
		frame := reqs[start:end]
		batch := wire.FullHashBatchRequest{Requests: make([]wire.FullHashRequest, len(frame))}
		for i, req := range frame {
			batch.Requests[i] = *req
		}
		buf, err := t.postWhole(ctx, sbserver.PathFullHashBatch, batch.Encode, wire.MaxFullHashBatchResponseWireBytes)
		if err != nil {
			return nil, err
		}
		resp, err := wire.DecodeFullHashBatchResponse(buf)
		putResp(buf)
		if err != nil {
			return nil, err
		}
		if len(resp.Responses) != len(frame) {
			return nil, fmt.Errorf("sbclient: batch returned %d responses for %d requests", len(resp.Responses), len(frame))
		}
		for i := range resp.Responses {
			out = append(out, &resp.Responses[i])
		}
	}
	return out, nil
}

// respPool recycles the buffers full-hash responses are read into.
// A decoded message holds no reference to its buffer.
var respPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledResp is the largest buffer put back in respPool; one grown
// past it by a rare large response is left to the collector.
const maxPooledResp = 64 << 10

func putResp(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledResp {
		respPool.Put(buf)
	}
}

// postWhole posts like post, then reads the whole response body, at
// most limit bytes, into a pooled buffer and closes it. A body past
// limit fails with an error wrapping wire.ErrTooLarge, having held no
// more than limit+1 bytes of it.
func (t HTTPTransport) postWhole(ctx context.Context, path string, encode func(io.Writer) error, limit int64) (*bytes.Buffer, error) {
	body, err := t.post(ctx, path, encode)
	if err != nil {
		return nil, err
	}
	buf := respPool.Get().(*bytes.Buffer)
	buf.Reset()
	_, err = buf.ReadFrom(io.LimitReader(body, limit+1))
	body.Close() //nolint:errcheck // read-side close
	switch {
	case err != nil:
		err = fmt.Errorf("sbclient: read %s response: %w", path, err)
	case int64(buf.Len()) > limit:
		err = fmt.Errorf("sbclient: %s response exceeds %d bytes: %w", path, limit, wire.ErrTooLarge)
	}
	if err != nil {
		putResp(buf)
		return nil, err
	}
	return buf, nil
}
