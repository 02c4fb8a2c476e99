package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"text/tabwriter"
	"time"

	"sbprivacy/internal/core"
	"sbprivacy/internal/probestore"
	"sbprivacy/internal/stream"
)

// runLive is the -live mode: tail a store directory that another
// process (experiments -campaign, a serving sbserver) is still writing,
// fan the feed into the windowed streaming pipeline, and redraw a
// rolling dashboard every -refresh seconds — per-window re-id rate, top
// linked chains, and the eviction accounting that proves resident state
// stays bounded. SIGINT/SIGTERM (or -exit-idle seconds of silence)
// stops the tail and prints the final snapshot.
func runLive(dir, indexFile string, windowDays int, linkage core.LongitudinalConfig, refresh, poll time.Duration, snapshotOut string, exitIdle time.Duration) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if indexFile == "" {
		indexFile = filepath.Join(dir, "index.urls")
	}
	// The writing process (experiments -campaign) drops the index into
	// the store directory just before its first probe; starting the
	// dashboard a beat earlier is normal, so wait for the file instead
	// of failing the race.
	for waited := false; ; waited = true {
		if _, err := os.Stat(indexFile); err == nil {
			break
		} else if !os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "sbanalyze: index %s: %v\n", indexFile, err)
			return 1
		}
		if !waited {
			fmt.Fprintf(os.Stderr, "sbanalyze: waiting for index %s\n", indexFile)
		}
		select {
		case <-ctx.Done():
			fmt.Fprintf(os.Stderr, "sbanalyze: interrupted before index %s appeared\n", indexFile)
			return 1
		case <-time.After(poll):
		}
	}
	index, n, err := loadIndex(indexFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbanalyze: load index %s: %v\n", indexFile, err)
		return 1
	}
	store, err := probestore.Open(dir, probestore.ReadOnly())
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbanalyze: %v\n", err)
		return 1
	}

	pl := newPipeline(index, windowDays, true, linkage, nil)

	// lastDelivery tracks wall time of the newest probe, for -exit-idle.
	var lastDelivery atomic.Int64
	lastDelivery.Store(time.Now().UnixNano())
	followCtx, cancelFollow := context.WithCancel(ctx)
	defer cancelFollow()
	done := make(chan error, 1)
	go func() {
		done <- stream.Follow(followCtx, store, pl, probestore.WithFollowPoll(poll))
	}()
	fmt.Fprintf(os.Stderr,
		"sbanalyze: live dashboard over %s (%d-URL index, %s window); stop with SIGINT\n",
		dir, n, windowLabel(windowDays))

	clear := isTerminal(os.Stdout)
	ticker := time.NewTicker(refresh)
	defer ticker.Stop()
	var followErr error
	var lastObserved int64
loop:
	for {
		select {
		case followErr = <-done:
			break loop
		case <-ticker.C:
			obs := pl.Observed()
			if obs != lastObserved {
				lastObserved = obs
				lastDelivery.Store(time.Now().UnixNano())
			}
			renderDashboard(os.Stdout, clear, dir, windowDays, obs, pl.Snapshot())
			idle := time.Since(time.Unix(0, lastDelivery.Load()))
			if exitIdle > 0 && obs > 0 && idle >= exitIdle {
				fmt.Fprintf(os.Stderr, "sbanalyze: feed idle for %s, stopping\n", idle.Round(time.Second))
				cancelFollow()
				followErr = <-done
				break loop
			}
		}
	}
	if followErr != nil {
		fmt.Fprintf(os.Stderr, "sbanalyze: follow: %v\n", followErr)
		return 1
	}

	// The feed has stopped: one snapshot is the final dashboard frame
	// and the final report.
	observed, snaps := pl.Observed(), pl.Snapshot()
	fmt.Fprintf(os.Stderr, "sbanalyze: tail stopped after %d probes\n", observed)
	renderDashboard(os.Stdout, false, dir, windowDays, observed, snaps)
	fmt.Println("\n== final snapshot ==")
	text := renderSnapshotStages(snaps)
	fmt.Print(text)
	if snapshotOut != "" {
		if err := os.WriteFile(snapshotOut, []byte(text), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sbanalyze: write snapshot: %v\n", err)
			return 1
		}
	}
	return 0
}

// windowLabel renders a window size for humans.
func windowLabel(days int) string {
	if days == 0 {
		return "unbounded"
	}
	return fmt.Sprintf("%d-day", days)
}

// isTerminal reports whether w is an interactive terminal, gating the
// ANSI clear between dashboard frames; piped output gets plain appends.
func isTerminal(f *os.File) bool {
	st, err := f.Stat()
	return err == nil && st.Mode()&os.ModeCharDevice != 0
}

// renderDashboard draws one dashboard frame from a pipeline snapshot
// and the probe count it is labelled with: pipeline totals, per-stage
// bounded-memory accounting, the window's re-identification rate, and
// the strongest linked chains.
func renderDashboard(out io.Writer, clear bool, dir string, windowDays int, observed int64, snaps []stream.StageSnapshot) {
	if clear {
		fmt.Fprint(out, "\x1b[2J\x1b[H")
	}
	fmt.Fprintf(out, "== live analysis of %s (%s window, %d probes) ==\n",
		dir, windowLabel(windowDays), observed)

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "stage\tobserved\tresident cookies\tresident days\tevicted\tlate")
	for _, s := range snaps {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", s.Name,
			s.Stats.Observed, s.Stats.ResidentCookies, s.Stats.ResidentDays,
			s.Stats.EvictedRecords, s.Stats.LateDropped)
	}
	w.Flush() //nolint:errcheck // dashboard frame to stdout

	for _, s := range snaps {
		switch rep := s.Report.(type) {
		case *core.Report:
			total, hit := len(rep.Clients), 0
			for _, c := range rep.Clients {
				if len(c.ExactURLs) > 0 || len(c.Domains) > 0 {
					hit++
				}
			}
			rate := 0.0
			if total > 0 {
				rate = float64(hit) / float64(total)
			}
			fmt.Fprintf(out, "re-identified clients in window: %d/%d (%.1f%%)\n",
				hit, total, 100*rate)
		case *core.LongitudinalReport:
			chains := append([]core.ChainReport(nil), rep.Chains...)
			sort.SliceStable(chains, func(i, j int) bool {
				if len(chains[i].Cookies) != len(chains[j].Cookies) {
					return len(chains[i].Cookies) > len(chains[j].Cookies)
				}
				return chains[i].Confidence > chains[j].Confidence
			})
			if len(chains) > 5 {
				chains = chains[:5]
			}
			fmt.Fprintf(out, "linked chains in window: %d (top %d shown)\n", len(rep.Chains), len(chains))
			for _, c := range chains {
				fmt.Fprintf(out, "  %s  (confidence %.2f)\n",
					strings.Join(c.Cookies, " -> "), c.Confidence)
			}
		}
	}
}

// renderSnapshotStages renders a pipeline snapshot as the canonical
// final-snapshot text: one titled section per stage, the stage report
// verbatim. Live and replay mode both write it for -snapshot-out, so
// live-vs-batch comparison is a byte diff.
func renderSnapshotStages(snaps []stream.StageSnapshot) string {
	var b strings.Builder
	for _, s := range snaps {
		fmt.Fprintf(&b, "== %s ==\n", s.Name)
		b.WriteString(s.Report.String())
		if !strings.HasSuffix(b.String(), "\n") {
			b.WriteByte('\n')
		}
	}
	return b.String()
}
