package sbserver

import (
	"sync"
	"sync/atomic"
)

// OverflowPolicy decides what happens when probes arrive faster than the
// pipeline drains them and the buffer is full.
type OverflowPolicy int

const (
	// OverflowBlock applies backpressure: FullHashes waits for buffer
	// space. No probe is ever lost; the request path slows down instead.
	// This is the default — the threat model's provider wants every probe.
	OverflowBlock OverflowPolicy = iota
	// OverflowDrop sheds load: when the buffer is full the probe is
	// counted in ProbeStats.Dropped and discarded, and the request is
	// served at full speed. The trade the paper's provider would never
	// make, but a capacity-constrained deployment might.
	OverflowDrop
)

// ProbeStats reports the probe pipeline's counters.
type ProbeStats struct {
	// Received counts probes presented to the pipeline.
	Received uint64
	// Dropped counts probes discarded under OverflowDrop.
	Dropped uint64
	// Evicted counts probes rotated out of a capacity-bounded log.
	// Evicted probes were still delivered to sinks.
	Evicted uint64
}

// probeMsg is one unit on the pipeline channel: either a probe or a
// flush barrier (flush != nil). sinks is the sink list captured at
// record time, so a sink subscribed after a request never observes it —
// Subscribe is a cut-point, as it was when delivery was synchronous.
type probeMsg struct {
	probe Probe
	sinks []ProbeSink
	flush chan struct{}
}

// probePipeline decouples probe recording from the full-hash serving
// path: FullHashes enqueues on one bounded channel and returns; one
// drainer goroutine appends to the (optionally rotating) log and fans
// out to subscribed sinks. The serving path therefore never blocks on a
// slow sink, and no log mutex is ever contended by request handlers.
//
// Delivery order is record order: the channel is FIFO and has a single
// reader, so the log and every sink see probes in the order they were
// enqueued, across all clients. One lane is enough because every sink
// serializes on its own lock; a second lane would parallelize little
// beyond the ring append, and cost a reorder to get record order back.
type probePipeline struct {
	ch     chan probeMsg
	done   chan struct{}
	policy OverflowPolicy
	logCap int // log bound; 0 = unbounded

	received atomic.Uint64
	dropped  atomic.Uint64

	// sinks is a copy-on-write slice loaded lock-free on delivery.
	sinks  atomic.Pointer[[]ProbeSink]
	sinkMu sync.Mutex // serializes Subscribe writers

	// The log is written only by the drainer (or by record() after
	// close), so logMu is effectively uncontended on the hot path;
	// snapshot() and stats() take it briefly.
	logMu   sync.Mutex
	log     []Probe
	start   int // ring head when the log is at capacity
	evicted uint64

	stateMu sync.RWMutex
	closed  bool
}

func newProbePipeline(buffer, logCap int, policy OverflowPolicy) *probePipeline {
	if buffer < 1 {
		buffer = 1
	}
	p := &probePipeline{
		ch:     make(chan probeMsg, buffer),
		done:   make(chan struct{}),
		policy: policy,
		logCap: logCap,
	}
	go p.run()
	return p
}

func (p *probePipeline) run() {
	defer close(p.done)
	for msg := range p.ch {
		if msg.flush != nil {
			close(msg.flush)
			continue
		}
		p.deliver(msg.probe, msg.sinks)
	}
}

// deliver appends to the log, rotating when logCap is reached, and fans
// out to the sinks captured when the probe was recorded.
func (p *probePipeline) deliver(probe Probe, sinks []ProbeSink) {
	p.logMu.Lock()
	if p.logCap > 0 && len(p.log) == p.logCap {
		p.log[p.start] = probe
		p.start = (p.start + 1) % p.logCap
		p.evicted++
	} else {
		p.log = append(p.log, probe)
	}
	p.logMu.Unlock()
	for _, sink := range sinks {
		sink.Observe(probe)
	}
}

// record hands a probe to the pipeline. Under OverflowBlock it waits for
// buffer space; under OverflowDrop a full buffer discards the probe.
// After close it falls back to synchronous delivery so a drained server
// still observes everything.
func (p *probePipeline) record(probe Probe) {
	p.stateMu.RLock()
	defer p.stateMu.RUnlock()
	p.received.Add(1)
	var sinks []ProbeSink
	if sp := p.sinks.Load(); sp != nil {
		sinks = *sp
	}
	if p.closed {
		// After close the drainer is gone; synchronous delivery under
		// the read lock is the record-vs-close fence that guarantees a
		// drained server still observes every probe.
		p.deliver(probe, sinks) //sbcheck:ignore lockscope post-close synchronous delivery is the record-vs-close fence; RLock only excludes close, never other recorders
		return
	}
	msg := probeMsg{probe: probe, sinks: sinks}
	if p.policy == OverflowDrop {
		select {
		case p.ch <- msg:
		default:
			p.dropped.Add(1)
		}
		return
	}
	// OverflowBlock deliberately applies backpressure here; stateMu is an
	// RLock shared by every recorder, so the wait stalls no one but close.
	p.ch <- msg //sbcheck:ignore lockscope OverflowBlock backpressure send under the shared RLock is the documented record-vs-close fence
}

// flush blocks until every probe recorded before the call has been
// delivered to the log and all sinks.
func (p *probePipeline) flush() {
	p.stateMu.RLock()
	if p.closed {
		p.stateMu.RUnlock()
		return
	}
	barrier := make(chan struct{})
	p.ch <- probeMsg{flush: barrier} //sbcheck:ignore lockscope flush barrier send must happen under the RLock so close cannot retire the drainer mid-flush
	p.stateMu.RUnlock()
	<-barrier
}

// close stops the drainer after it finishes everything already
// enqueued. When wait is true, close returns only once the drain is
// complete — the flush-on-Close guarantee.
func (p *probePipeline) close(wait bool) {
	p.stateMu.Lock()
	if !p.closed {
		p.closed = true
		close(p.ch)
	}
	p.stateMu.Unlock()
	if wait {
		<-p.done
	}
}

// snapshot returns the logged probes in record order, oldest first.
func (p *probePipeline) snapshot() []Probe {
	p.logMu.Lock()
	defer p.logMu.Unlock()
	out := make([]Probe, 0, len(p.log))
	out = append(out, p.log[p.start:]...)
	return append(out, p.log[:p.start]...)
}

func (p *probePipeline) subscribe(sink ProbeSink) {
	p.sinkMu.Lock()
	defer p.sinkMu.Unlock()
	var cur []ProbeSink
	if old := p.sinks.Load(); old != nil {
		cur = *old
	}
	next := make([]ProbeSink, 0, len(cur)+1)
	next = append(next, cur...)
	next = append(next, sink)
	p.sinks.Store(&next)
}

func (p *probePipeline) stats() ProbeStats {
	p.logMu.Lock()
	evicted := p.evicted
	p.logMu.Unlock()
	return ProbeStats{
		Received: p.received.Load(),
		Dropped:  p.dropped.Load(),
		Evicted:  evicted,
	}
}
