package probestore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sbprivacy/internal/sbserver"
)

// TestSingleProducerOrderIsPreserved: one producer, many cookies,
// increasing timestamps, the default spill threshold. What Replay and
// Follow hand back is the input sequence itself, not a per-cookie
// regrouping of it — the property a windowed stream analysis of a
// campaign store depends on.
func TestSingleProducerOrderIsPreserved(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, WithMaxSegmentBytes(128<<10))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 20_000
	in := make([]sbserver.Probe, n)
	for i := range in {
		in[i] = probe(fmt.Sprintf("client-%02d", (i*37)%64), i) // 37 is odd: all 64 cookies
		w.Observe(in[i])
	}
	check := func(source string, got []sbserver.Probe) {
		t.Helper()
		if len(got) != n {
			t.Fatalf("%s returned %d probes, want %d", source, len(got), n)
		}
		for i := range got {
			if !sameProbe(got[i], in[i]) {
				t.Fatalf("%s position %d = %+v, want %+v", source, i, got[i], in[i])
			}
		}
	}

	var replayed []sbserver.Probe
	if err := w.Replay(func(p sbserver.Probe) error {
		replayed = append(replayed, p)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	check("Replay", replayed)
	mustClose(t, w)
	if segs := len(w.Segments()); segs < 3 {
		t.Fatalf("feed fit in %d segments; want at least 3", segs)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var followed []sbserver.Probe
	err = mustReadOnly(t, dir).Follow(ctx, func(p sbserver.Probe) error {
		followed = append(followed, p)
		if len(followed) == n {
			cancel()
		}
		return nil
	}, WithFollowPoll(time.Millisecond))
	if err != nil {
		t.Fatalf("Follow: %v", err)
	}
	check("Follow", followed)
}

// TestObserveRacingClose: producers keep calling Observe while Close
// runs. Every probe is either persisted or counted as rejected, none is
// buffered and forgotten, and closing twice is an error that does no
// work.
func TestObserveRacingClose(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithMaxSegmentBytes(16<<10), WithSpillThreshold(512))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const goroutines = 8
	var (
		wg       sync.WaitGroup
		observed atomic.Int64
		closed   = make(chan struct{})
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := fmt.Sprintf("client-%d", g)
			after := 10 // probes still sent once Close has returned
			for i := 0; after > 0; i++ {
				select {
				case <-closed:
					after--
				default:
				}
				s.Observe(probe(c, i))
				observed.Add(1)
			}
		}(g)
	}
	for observed.Load() < 2000 {
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	close(closed)
	wg.Wait()

	st := s.Stats()
	if st.Received != uint64(observed.Load()) {
		t.Errorf("Received = %d, want %d", st.Received, observed.Load())
	}
	if st.Received != st.Persisted+st.WriteErrors || st.Dropped != 0 {
		t.Errorf("probes unaccounted for: %+v", st)
	}
	if st.WriteErrors < goroutines*10 {
		t.Errorf("WriteErrors = %d, want at least the %d probes sent after Close", st.WriteErrors, goroutines*10)
	}
	replayed := uint64(0)
	if err := mustReadOnly(t, dir).Replay(func(sbserver.Probe) error {
		replayed++
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if replayed != st.Persisted {
		t.Errorf("reopened store replays %d probes, Persisted = %d", replayed, st.Persisted)
	}

	// The second Close must not flush: the rejections noted since the
	// first one are still there for Flush to report.
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("second Close = %v, want ErrClosed", err)
	}
	if err := s.Flush(); !errors.Is(err, ErrClosed) {
		t.Errorf("Flush after the second Close = %v, want the noted ErrClosed", err)
	}
}
