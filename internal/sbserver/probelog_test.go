package sbserver

import (
	"fmt"
	"testing"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/wire"
)

// recordOrderFeed is the request sequence of the record-order tests:
// 64 cookies taking turns, so consecutive probes always come from
// different clients, each probe tagged by a unique prefix.
func recordOrderFeed() []*wire.FullHashRequest {
	const cookies, perCookie = 64, 64
	reqs := make([]*wire.FullHashRequest, 0, cookies*perCookie)
	for i := 0; i < cookies*perCookie; i++ {
		reqs = append(reqs, &wire.FullHashRequest{
			ClientID: fmt.Sprintf("cookie-%02d", i%cookies),
			Prefixes: []hashx.Prefix{hashx.Prefix(i)},
		})
	}
	return reqs
}

// checkRecordOrder fails unless got is exactly the probes of want, in
// order.
func checkRecordOrder(t *testing.T, what string, got []Probe, want []*wire.FullHashRequest) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d probes, want %d", what, len(got), len(want))
	}
	for i, p := range got {
		if p.ClientID != want[i].ClientID || p.Prefixes[0] != want[i].Prefixes[0] {
			t.Fatalf("%s[%d] = %s/%v, want %s/%v: delivery order is not record order",
				what, i, p.ClientID, p.Prefixes[0], want[i].ClientID, want[i].Prefixes[0])
		}
	}
}

// loggedProbes is the number of probes the pipeline holds in its log.
func loggedProbes(s *Server) int {
	s.probes.logMu.Lock()
	defer s.probes.logMu.Unlock()
	return len(s.probes.log)
}

// TestProbeRecordOrderAcrossCookies pins the pipeline's order contract
// across clients: with no Flush between requests, a sink and the probe
// log both see every probe in the order FullHashes recorded it — not
// just per client — and a bounded log never holds more than its limit.
func TestProbeRecordOrderAcrossCookies(t *testing.T) {
	t.Parallel()
	feed := recordOrderFeed()

	t.Run("unbounded", func(t *testing.T) {
		t.Parallel()
		s := New()
		rec := &recordingSink{}
		s.Subscribe(rec)
		for _, req := range feed {
			if _, err := s.FullHashes(req); err != nil {
				t.Fatalf("FullHashes: %v", err)
			}
		}
		checkRecordOrder(t, "Probes()", s.Probes(), feed)
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		rec.mu.Lock()
		defer rec.mu.Unlock()
		checkRecordOrder(t, "sink", rec.probes, feed)
	})

	t.Run("limit16", func(t *testing.T) {
		t.Parallel()
		const limit = 16
		s := New(WithProbeLogLimit(limit))
		rec := &recordingSink{}
		s.Subscribe(rec)
		for i, req := range feed {
			if _, err := s.FullHashes(req); err != nil {
				t.Fatalf("FullHashes: %v", err)
			}
			if n := loggedProbes(s); n > limit {
				t.Fatalf("after %d requests the pipeline holds %d logged probes, want at most %d", i+1, n, limit)
			}
		}
		checkRecordOrder(t, "Probes()", s.Probes(), feed[len(feed)-limit:])
		if n := loggedProbes(s); n != limit {
			t.Errorf("drained pipeline holds %d logged probes, want %d", n, limit)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if st := s.ProbeStats(); st.Evicted != uint64(len(feed)-limit) {
			t.Errorf("Evicted = %d, want %d", st.Evicted, len(feed)-limit)
		}
		rec.mu.Lock()
		defer rec.mu.Unlock()
		checkRecordOrder(t, "sink", rec.probes, feed)
	})
}
