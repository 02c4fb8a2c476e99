package sbserver

import (
	"bytes"
	"errors"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync"

	"sbprivacy/internal/wire"
)

// HTTP endpoints. The Safe Browsing service lives at the application
// layer of the standard Internet stack (paper Section 2.2).
const (
	PathDownloads     = "/safebrowsing/downloads"
	PathFullHash      = "/safebrowsing/gethash"
	PathFullHashBatch = "/safebrowsing/gethash/batch"
)

// HandlerOption configures the HTTP handler returned by Handler.
type HandlerOption func(*handlerConfig)

type handlerConfig struct {
	limiter *Limiter
}

// WithLimiter places a Limiter in front of every endpoint: requests
// over the admission rate or the in-flight cap are answered 429 with a
// Retry-After hint before any body is read.
func WithLimiter(l *Limiter) HandlerOption {
	return func(c *handlerConfig) { c.limiter = l }
}

// Handler exposes the server over HTTP. Requests and responses use the
// binary wire format with content type application/octet-stream.
// Request bodies are capped at the maximum encoded size of each
// message (http.MaxBytesReader over the wire-format bounds) and read
// whole before decoding, so a client cannot stream an unbounded body at
// a decoder: a body over the cap is refused whole with 400, even when
// it starts with a valid message, and records no probe. Full-hash
// responses are encoded whole and sent with one Write and a
// Content-Length; a download response streams, since its size grows
// with the list. Options add server-side overload controls
// (WithLimiter).
func Handler(s *Server, opts ...HandlerOption) http.Handler {
	var cfg handlerConfig
	for _, o := range opts {
		o(&cfg)
	}
	mux := http.NewServeMux()
	mux.HandleFunc(PathDownloads, func(w http.ResponseWriter, r *http.Request) {
		buf, ok := readBody(w, r, wire.MaxDownloadRequestWireBytes)
		if !ok {
			return
		}
		defer putBuffer(buf)
		req, err := wire.DecodeDownloadRequest(buf)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := s.Download(req)
		if err != nil {
			// Only an unknown list is the client's fault; anything else
			// is a server-side failure and must not masquerade as "no
			// such resource".
			status := http.StatusInternalServerError
			if errors.Is(err, ErrUnknownList) {
				status = http.StatusNotFound
			}
			http.Error(w, err.Error(), status)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := resp.Encode(w); err != nil {
			log.Printf("sbserver: encode download response: %v", err)
		}
	})
	mux.HandleFunc(PathFullHash, func(w http.ResponseWriter, r *http.Request) {
		buf, ok := readBody(w, r, wire.MaxFullHashRequestWireBytes)
		if !ok {
			return
		}
		defer putBuffer(buf)
		req, err := wire.DecodeFullHashRequest(buf)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := s.FullHashes(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeBody(w, buf, resp.Encode)
	})
	mux.HandleFunc(PathFullHashBatch, func(w http.ResponseWriter, r *http.Request) {
		buf, ok := readBody(w, r, wire.MaxFullHashBatchRequestWireBytes)
		if !ok {
			return
		}
		defer putBuffer(buf)
		batch, err := wire.DecodeFullHashBatchRequest(buf)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		reqs := make([]*wire.FullHashRequest, len(batch.Requests))
		for i := range batch.Requests {
			reqs[i] = &batch.Requests[i]
		}
		resps, err := s.FullHashesBatch(reqs)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		out := wire.FullHashBatchResponse{Responses: make([]wire.FullHashResponse, len(resps))}
		for i, resp := range resps {
			out.Responses[i] = *resp
		}
		writeBody(w, buf, out.Encode)
	})
	if cfg.limiter != nil {
		return cfg.limiter.Wrap(mux)
	}
	return mux
}

// bufferPool recycles the buffers that hold one request body and then
// its full-hash response.
var bufferPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuffer is the largest buffer put back in bufferPool; one
// grown past it by a rare large message is left to the collector.
const maxPooledBuffer = 64 << 10

func putBuffer(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuffer {
		bufferPool.Put(buf)
	}
}

// readBody answers anything but a POST with 405 and otherwise reads the
// whole request body, at most limit bytes, into a pooled buffer. A body
// over limit is answered 400 and no part of it is decoded. ok is false
// when the response has been written.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) (buf *bytes.Buffer, ok bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return nil, false
	}
	buf = bufferPool.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		putBuffer(buf)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return buf, true
}

// writeBody encodes a message into buf, replacing what buf held, and
// sends it with one Write and an explicit Content-Length, or answers
// 500 if encoding fails.
func writeBody(w http.ResponseWriter, buf *bytes.Buffer, encode func(io.Writer) error) {
	buf.Reset()
	if err := encode(buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	if _, err := w.Write(buf.Bytes()); err != nil {
		log.Printf("sbserver: write response: %v", err)
	}
}
