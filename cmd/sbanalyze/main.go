// Command sbanalyze is the provider-side analysis tool over a probe
// log. It has three modes, one of which must be given: replay
// (-probe-store), follow (-follow) and live (-live); with none it exits
// 2. The paper's Section 7 blacklist audits (Tables 9-12) are
// "experiments -run table9" through "table12".
//
// Probe-log replay mode (-probe-store) replays a persisted probe log
// written by "sbserver -probe-store" and runs the Section 6
// re-identification analysis over it offline — demonstrating that a
// provider which retains the probe stream can draw every conclusion a
// live wiretap could, long after the fact:
//
//	sbanalyze -probe-store /var/log/sb-probes -index urls.txt
//	sbanalyze -probe-store /var/log/sb-probes -client victim-cookie
//
// -index is a file of URLs (one per line) standing in for the
// provider's web index; -client prints one cookie's raw probe history
// from the per-client index.
//
// -since/-until (RFC 3339 or "2006-01-02", UTC) restrict replay and
// follow mode to a time window of the store — the provider analyzing
// just one slice of its retained history. -longitudinal (with -index)
// additionally runs the day-over-day analysis over the replayed
// window: per-day activity, cookie linkage across resets, and the
// linked identity chains. A campaign store written by
// "experiments -campaign" replays into the identical report the live
// run printed:
//
//	sbanalyze -probe-store /tmp/sb-campaign-X -index urls.txt -longitudinal
//	sbanalyze -probe-store /tmp/sb-campaign-X -index urls.txt -since 2016-03-08 -until 2016-03-10
//
// -correlator RULES additionally runs the Section 6.3 temporal-
// correlation engine over the replayed window: RULES is a file with one
// rule per line, "NAME WINDOW URL [URL...]" (WINDOW is a Go duration;
// URLs are canonicalized, bare "host/path" expressions pass as-is;
// blank lines and #-comments are skipped; a negative WINDOW is
// rejected). A rule fires when one client queried every listed URL's
// prefix within the window — the paper's "planning to submit a paper"
// inference. The rules ride the same single replay pass as -index and
// -longitudinal:
//
//	sbanalyze -probe-store /tmp/sb-campaign-X -correlator rules.txt -since 2016-03-08
//
// Follow mode (-follow) tails a live store directory like `tail -f`:
// every probe already on disk is delivered first, then probes are
// streamed as the serving process spills them, until SIGINT/SIGTERM
// stops the tail cleanly. With -index the re-identification analysis
// runs continuously and the report prints at stop — the live wiretap
// and the retained log fused into one view:
//
//	sbanalyze -follow /var/log/sb-probes -index urls.txt
//	sbanalyze -follow /var/log/sb-probes -client victim-cookie
//
// -follow-poll tunes how often an idle tail re-checks the directory
// (default 50ms); it applies to -follow and -live.
//
// Replay, follow and live mode all drive the same streaming pipeline
// of internal/stream; replay and follow run it unbounded.
//
// Live dashboard mode (-live) tails a store directory another process
// is writing — "experiments -campaign" mid-run, a serving sbserver —
// through that pipeline, windowed, and redraws a rolling dashboard
// every -refresh seconds: per-window re-identification rate, top
// linked identity chains, and the eviction counters that bound
// resident state to the newest -window days. The index defaults to DIR/index.urls (the campaign writes it
// before its first probe); -min-shared, -min-shared-urls and
// -min-link-score set the linkage thresholds as in replay mode, and
// -since, -until and -client do not apply. SIGINT, SIGTERM, or
// -exit-idle seconds of feed silence stop the tail and print the final
// snapshot; -snapshot-out writes that snapshot's canonical text to a
// file, and the same flag in replay mode (-probe-store -index
// [-longitudinal]) writes the replayed snapshot in the identical
// layout, so live-vs-batch equivalence on a sealed store is a byte
// diff. The replayed snapshot holds every stage of the replay, so with
// -correlator it ends in one more section, "== correlation ==", which
// -live never writes:
//
//	sbanalyze -live /tmp/sb-campaign-X -window 7 -refresh 2
//	sbanalyze -live /tmp/sb-campaign-X -exit-idle 5 -snapshot-out live.txt
//	sbanalyze -probe-store /tmp/sb-campaign-X -index urls.txt -longitudinal -snapshot-out batch.txt
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"sbprivacy/internal/core"
	"sbprivacy/internal/probestore"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/stream"
	"sbprivacy/internal/urlx"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	var (
		storeDir     = fs.String("probe-store", "", "replay a persisted probe log from this directory")
		followDir    = fs.String("follow", "", "tail a live probe-store directory, streaming probes until SIGINT")
		indexFile    = fs.String("index", "", "file of URLs (one per line) forming the provider's web index for re-identification")
		client       = fs.String("client", "", "print the probe history of one client cookie (replay/follow mode)")
		since        = fs.String("since", "", "ignore probes before this time (RFC 3339 or 2006-01-02, UTC; replay/follow mode)")
		until        = fs.String("until", "", "ignore probes at or after this time (RFC 3339 or 2006-01-02, UTC; replay/follow mode)")
		liveDir      = fs.String("live", "", "rolling dashboard over a probe-store directory another process is writing (streaming pipeline; stop with SIGINT)")
		windowDays   = fs.Int("window", 7, "live mode: sliding analysis window in days (0 = unbounded)")
		refreshSecs  = fs.Int("refresh", 2, "live mode: dashboard refresh interval in seconds")
		followPoll   = fs.Duration("follow-poll", probestore.DefaultFollowPoll, "idle poll interval of the store tail (follow/live mode)")
		exitIdle     = fs.Int("exit-idle", 0, "live mode: exit once the feed has been idle this many seconds after at least one probe (0 = run until SIGINT)")
		snapshotOut  = fs.String("snapshot-out", "", "write the canonical final-snapshot text to this file (live mode, or replay mode with -index)")
		longitudinal = fs.Bool("longitudinal", false, "also run the day-over-day cookie-linkage analysis (needs -index; replay mode)")
		correlator   = fs.String("correlator", "", "rules file for the temporal-correlation analysis over the replayed window (replay mode; see the package comment for the line format)")
		minShared    = fs.Int("min-shared", 0, "longitudinal: least shared profile elements per link (0 = default)")
		minSharedURL = fs.Int("min-shared-urls", 0, "longitudinal: least shared exact URLs per link (0 = default, negative allows none)")
		minLinkScore = fs.Float64("min-link-score", 0, "longitudinal: least overlap-coefficient score per link (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	modes := 0
	for _, m := range []string{*followDir, *storeDir, *liveDir} {
		if m != "" {
			modes++
		}
	}
	if modes == 0 {
		fmt.Fprintln(os.Stderr, "sbanalyze: pick a mode: -probe-store DIR, -follow DIR or -live DIR\n"+
			"(the Section 7 blacklist audits are \"experiments -run table9\" through \"table12\")")
		return 2
	}
	if modes > 1 {
		fmt.Fprintln(os.Stderr, "sbanalyze: -probe-store, -follow and -live are mutually exclusive")
		return 2
	}
	if *windowDays < 0 || *refreshSecs <= 0 || *exitIdle < 0 {
		fmt.Fprintln(os.Stderr, "sbanalyze: -window must be >= 0, -refresh > 0, -exit-idle >= 0")
		return 2
	}
	window, err := parseWindow(*since, *until)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbanalyze: %v\n", err)
		return 2
	}
	if *longitudinal && (*indexFile == "" || *storeDir == "") {
		fmt.Fprintln(os.Stderr, "sbanalyze: -longitudinal needs -probe-store and -index")
		return 2
	}
	if *correlator != "" && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "sbanalyze: -correlator needs -probe-store")
		return 2
	}
	if *storeDir == "" && *followDir == "" && (*since != "" || *until != "" || *client != "") {
		fmt.Fprintln(os.Stderr, "sbanalyze: -since, -until and -client apply to -probe-store or -follow mode")
		return 2
	}
	linkage := core.LongitudinalConfig{
		MinShared:     *minShared,
		MinSharedURLs: *minSharedURL,
		MinLinkScore:  *minLinkScore,
	}
	if *liveDir != "" {
		return runLive(*liveDir, *indexFile, *windowDays, linkage,
			time.Duration(*refreshSecs)*time.Second, *followPoll,
			*snapshotOut, time.Duration(*exitIdle)*time.Second)
	}
	if *followDir != "" {
		return runFollow(*followDir, *indexFile, *client, window, *followPoll)
	}
	return runReplay(*storeDir, *indexFile, *client, window, *longitudinal, linkage, *correlator, *snapshotOut)
}

// parseWindow builds the probe time filter from the -since/-until
// flags. Accepts RFC 3339 timestamps or bare UTC dates; an empty flag
// leaves that side unbounded. The window is [since, until).
func parseWindow(since, until string) (func(time.Time) bool, error) {
	parse := func(flag, v string) (time.Time, error) {
		if t, err := time.Parse(time.RFC3339, v); err == nil {
			return t, nil
		}
		t, err := time.Parse("2006-01-02", v)
		if err != nil {
			return time.Time{}, fmt.Errorf("-%s %q: want RFC 3339 or 2006-01-02", flag, v)
		}
		return t, nil
	}
	var lo, hi time.Time
	var err error
	if since != "" {
		if lo, err = parse("since", since); err != nil {
			return nil, err
		}
	}
	if until != "" {
		if hi, err = parse("until", until); err != nil {
			return nil, err
		}
	}
	if !lo.IsZero() && !hi.IsZero() && !lo.Before(hi) {
		return nil, fmt.Errorf("-since %s is not before -until %s", since, until)
	}
	return func(t time.Time) bool {
		if !lo.IsZero() && t.Before(lo) {
			return false
		}
		if !hi.IsZero() && !t.Before(hi) {
			return false
		}
		return true
	}, nil
}

// runReplay is the -probe-store mode: open the log read-only, print the
// store's shape and dump one client's history (with -client), then
// replay the store once through one pipeline: the re-identification
// analysis (with -index), plus the day-over-day linkage (with
// -longitudinal), plus the temporal-correlation rules of a -correlator
// file. Only probes inside the -since/-until window are analyzed.
func runReplay(dir, indexFile, client string, window func(time.Time) bool, longitudinal bool, linkage core.LongitudinalConfig, correlatorFile, snapshotOut string) int {
	// Load the correlation rules before touching the store, so a bad
	// rules file fails fast.
	var rules []core.CorrelationRule
	if correlatorFile != "" {
		var err error
		rules, err = loadRules(correlatorFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sbanalyze: load rules %s: %v\n", correlatorFile, err)
			return 1
		}
	}

	store, err := probestore.Open(dir, probestore.ReadOnly())
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbanalyze: %v\n", err)
		return 1
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer w.Flush() //nolint:errcheck // stdout flush at exit

	fmt.Fprintf(w, "== probe store %s ==\n", dir)
	fmt.Fprintln(w, "segment\trecords\tbytes")
	var records int
	for _, seg := range store.Segments() {
		fmt.Fprintf(w, "%08d\t%d\t%d\n", seg.ID, seg.Records, seg.Bytes)
		records += seg.Records
	}
	fmt.Fprintf(w, "total\t%d\t\n", records)

	if client != "" {
		// ClientHistory consults the per-segment bloom sidecars, so the
		// query opens only segments that may contain the cookie instead
		// of streaming the whole store.
		history, err := store.ClientHistory(client)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sbanalyze: %v\n", err)
			return 1
		}
		kept := history[:0]
		for _, p := range history {
			if window(p.Time) {
				kept = append(kept, p)
			}
		}
		fmt.Fprintf(w, "\n== history of client %q (%d probes) ==\n", client, len(kept))
		fmt.Fprintln(w, "time\tprefixes")
		for _, p := range kept {
			fmt.Fprintf(w, "%s\t%v\n", p.Time.UTC().Format("2006-01-02T15:04:05.000Z"), p.Prefixes)
		}
	}

	var index *core.Index
	var indexed int
	if indexFile != "" {
		if index, indexed, err = loadIndex(indexFile); err != nil {
			fmt.Fprintf(os.Stderr, "sbanalyze: load index %s: %v\n", indexFile, err)
			return 1
		}
	}
	pl := newPipeline(index, 0, longitudinal, linkage, rules)
	// A summary-only run counts distinct cookies in the same streaming
	// pass rather than forcing the store to build its full index.
	var seen map[string]struct{}
	if index == nil && client == "" {
		seen = make(map[string]struct{})
	}
	if len(pl.Stages()) == 0 && seen == nil {
		return 0 // a -client dump needs no replay
	}
	if err := store.Replay(func(p sbserver.Probe) error {
		if !window(p.Time) {
			return nil
		}
		if seen != nil {
			seen[p.ClientID] = struct{}{}
		}
		pl.Observe(p)
		return nil
	}); err != nil {
		fmt.Fprintf(os.Stderr, "sbanalyze: replay: %v\n", err)
		return 1
	}
	if seen != nil {
		fmt.Fprintf(w, "distinct clients\t%d\t\n", len(seen))
		fmt.Fprintln(w, "\n(pass -index urls.txt to run the re-identification analysis,")
		fmt.Fprintln(w, " or -client COOKIE to dump one client's history)")
	}

	snaps := pl.Snapshot()
	for _, s := range snaps {
		switch rep := s.Report.(type) {
		case *core.Report:
			fmt.Fprintf(w, "\n== re-identification over %d indexed URLs (%d clients) ==\n", indexed, len(rep.Clients))
		case *core.LongitudinalReport:
			fmt.Fprintf(w, "\n== day-over-day longitudinal analysis ==\n")
		case stream.CorrelationReport:
			fmt.Fprintf(w, "\n== temporal correlation (%d rules, %d events) ==\n", len(rules), len(rep))
		}
		w.Flush() //nolint:errcheck // interleave the report after the table
		fmt.Print(s.Report)
	}
	// The canonical snapshot text is what -live writes for its final
	// snapshot, so a live run and a batch replay of the same sealed
	// store are comparable with a plain byte diff.
	if index != nil && snapshotOut != "" {
		if err := os.WriteFile(snapshotOut, []byte(renderSnapshotStages(snaps)), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sbanalyze: write snapshot: %v\n", err)
			return 1
		}
	}
	return 0
}

// loadRules reads a correlation-rules file: one rule per line in the
// form "NAME WINDOW URL [URL...]", where WINDOW is a Go duration
// ("15m", "2h"). Blank lines and #-comments are skipped.
func loadRules(path string) ([]core.CorrelationRule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //nolint:errcheck // read-side close

	var rules []core.CorrelationRule
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 3 {
			return nil, fmt.Errorf("line %d: want NAME WINDOW URL [URL...], got %q", line, text)
		}
		window, err := time.ParseDuration(fields[1])
		if err != nil {
			return nil, fmt.Errorf("line %d: bad window %q: %w", line, fields[1], err)
		}
		if window < 0 {
			return nil, fmt.Errorf("line %d: negative window %s can never fire", line, fields[1])
		}
		exprs := make([]string, len(fields)-2)
		for i, u := range fields[2:] {
			if strings.Contains(u, "://") {
				c, err := urlx.Canonicalize(u)
				if err != nil {
					return nil, fmt.Errorf("line %d: url %q: %w", line, u, err)
				}
				u = c.String()
			}
			exprs[i] = u
		}
		rules = append(rules, core.NewCorrelationRule(fields[0], window, exprs...))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("no rules found")
	}
	return rules, nil
}

// runFollow is the -follow mode: open the live store read-only and
// tail it until a signal. Without -index or -client every probe is
// printed as it lands on disk; -client restricts the stream to one
// cookie; -index feeds the re-identification analyzer continuously and
// prints its report when the tail stops. Probes outside the
// -since/-until window are skipped.
func runFollow(dir, indexFile, client string, window func(time.Time) bool, poll time.Duration) int {
	store, err := probestore.Open(dir, probestore.ReadOnly())
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbanalyze: %v\n", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var pl *stream.Pipeline
	if indexFile != "" {
		index, n, err := loadIndex(indexFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sbanalyze: load index %s: %v\n", indexFile, err)
			return 1
		}
		pl = newPipeline(index, 0, false, core.LongitudinalConfig{}, nil)
		fmt.Fprintf(os.Stderr, "sbanalyze: following %s with a %d-URL index; stop with SIGINT\n", dir, n)
	} else {
		fmt.Fprintf(os.Stderr, "sbanalyze: following %s; stop with SIGINT\n", dir)
	}

	probes := 0
	err = store.Follow(ctx, func(p sbserver.Probe) error {
		if !window(p.Time) {
			return nil
		}
		probes++
		if pl != nil {
			pl.Observe(p)
		}
		// Per-probe lines stream for a plain tail and for a -client
		// watch (which composes with -index, like replay mode); an
		// -index-only run stays quiet until the report.
		if client != "" && p.ClientID != client {
			return nil
		}
		if pl == nil || client != "" {
			fmt.Printf("%s\t%s\t%v\n",
				p.Time.UTC().Format("2006-01-02T15:04:05.000Z"), p.ClientID, p.Prefixes)
		}
		return nil
	}, probestore.WithFollowPoll(poll))
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbanalyze: follow: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "sbanalyze: tail stopped after %d probes\n", probes)
	if pl != nil {
		rep := pl.Snapshot()[0].Report.(*core.Report)
		fmt.Printf("\n== re-identification over the followed stream (%d clients) ==\n", len(rep.Clients))
		fmt.Print(rep)
	}
	return 0
}

// newPipeline builds the analysis every mode drives: re-identification
// over index (when non-nil), plus day-over-day linkage with the given
// thresholds when longitudinal is set, both over the newest windowDays
// UTC days (0 = unbounded), plus temporal correlation when rules are
// given. Replay, follow and live differ only in how they feed it.
func newPipeline(index *core.Index, windowDays int, longitudinal bool, linkage core.LongitudinalConfig, rules []core.CorrelationRule) *stream.Pipeline {
	var stages []stream.Stage
	if index != nil {
		stages = append(stages, stream.NewReidentStage(index, windowDays))
		if longitudinal {
			stages = append(stages, stream.NewLinkageStage(index, linkage, windowDays))
		}
	}
	if len(rules) > 0 {
		stages = append(stages, stream.NewCorrelationStage(rules...))
	}
	return stream.NewPipeline(stages...)
}

// loadIndex reads a URL-per-line file into the provider's web index.
// Full URLs are canonicalized; bare expressions ("host/path") are
// indexed as-is. Blank lines and #-comments are skipped.
func loadIndex(path string) (*core.Index, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close() //nolint:errcheck // read-side close

	index := core.NewIndex(nil)
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		if strings.Contains(line, "://") {
			c, err := urlx.Canonicalize(line)
			if err != nil {
				return nil, 0, fmt.Errorf("line %q: %w", line, err)
			}
			line = c.String()
		}
		index.Add(line)
		n++
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if n == 0 {
		return nil, 0, fmt.Errorf("no URLs found")
	}
	return index, n, nil
}
