package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 for a root).
// Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the traced run ends. It lives in
// the benchmark, around the calls into each layer; the program under
// test carries no tracing of its own.
type tracer struct {
	epoch   time.Time
	nextID  atomic.Int64
	nextReq atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t     *tracer
	id    int64
	par   int64
	req   int64
	name  string
	start int64
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newReq allocates a request id.
func (t *tracer) newReq() int64 { return t.nextReq.Add(1) }

// begin starts a span under parent (0 = root) for request req.
func (t *tracer) begin(name string, parent, req int64) openSpan {
	return openSpan{t: t, id: t.nextID.Add(1), par: parent, req: req, name: name, start: t.now()}
}

// end closes the span and stores it.
func (o openSpan) end() {
	s := span{ID: o.id, Parent: o.par, Req: o.req, Name: o.name, Start: o.start, End: o.t.now()}
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, s)
	o.t.mu.Unlock()
}

// all returns the recorded spans.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanRef names a span as the cause of further work: carried in a
// context on the client side and in a request header across the wire.
type spanRef struct{ req, id int64 }

type spanRefKey struct{}

func withSpanRef(ctx context.Context, r spanRef) context.Context {
	return context.WithValue(ctx, spanRefKey{}, r)
}

func spanRefFrom(ctx context.Context) (spanRef, bool) {
	r, ok := ctx.Value(spanRefKey{}).(spanRef)
	return r, ok
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover (overlapping children
// are counted once).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// spanStats summarises the spans of one name.
type spanStats struct {
	count      int
	medianDur  float64 // ns
	medianSelf float64 // ns
}

// statsByName groups spans by name and takes the median duration and
// median self time of each group.
func statsByName(spans []span) map[string]spanStats {
	self := selfTimes(spans)
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur()))
		selfs[s.Name] = append(selfs[s.Name], float64(self[s.ID]))
	}
	out := make(map[string]spanStats, len(durs))
	for name, d := range durs {
		md, _ := median(d)
		ms, _ := median(selfs[name])
		out[name] = spanStats{count: len(d), medianDur: md, medianSelf: ms}
	}
	return out
}

// maxTraceSpans caps a span file; the in-memory figures use every span.
const maxTraceSpans = 200_000

// traceFile is the layout of DIR/trace-<workload>.json.
type traceFile struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Spans     []span `json:"spans"`
	Recorded  int    `json:"recorded"`  // spans the run recorded
	Truncated bool   `json:"truncated"` // the file holds only the first maxTraceSpans
}

// writeTrace writes the spans of one traced phase under the results
// directory.
func writeTrace(e *env, workload string, spans []span) error {
	tf := traceFile{Workload: workload, Seed: e.seed, Spans: spans, Recorded: len(spans)}
	if len(spans) > maxTraceSpans {
		tf.Spans, tf.Truncated = spans[:maxTraceSpans], true
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.outDir, "trace-"+workload+".json"), b, 0o644)
}
