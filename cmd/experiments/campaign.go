package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"sbprivacy/internal/ablation"
	"sbprivacy/internal/core"
	"sbprivacy/internal/probestore"
	"sbprivacy/internal/stream"
	"sbprivacy/internal/workload"
)

// campaignOptions are the -campaign mode knobs.
type campaignOptions struct {
	days      int
	clients   int
	seed      int64
	churn     workload.ChurnSchedule
	storeDir  string // "" creates a temp directory and prints it
	segmentKB int
	linkage   core.LongitudinalConfig
}

// runCampaign is the -campaign mode: generate a deterministic multi-day
// synthetic workload, drive it through the real client/server stack
// with a probe store and a live day-over-day linkage stage subscribed,
// print the day-over-day re-identification report with its ground-truth
// score, and finally verify that replaying the persisted store offline
// reproduces the live report exactly. The store directory is left in
// place so the same analysis can be re-run with
// "sbanalyze -probe-store DIR -index urls.txt -longitudinal".
func runCampaign(w io.Writer, opts campaignOptions) error {
	camp, err := workload.Generate(workload.Config{
		Days: opts.days, Clients: opts.clients, Seed: opts.seed,
		Churn: opts.churn,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(w, camp.Summary())

	dir := opts.storeDir
	if dir == "" {
		dir, err = os.MkdirTemp("", "sb-campaign-")
		if err != nil {
			return err
		}
	} else if segs, _ := filepath.Glob(filepath.Join(dir, "seg-*"+".plog")); len(segs) > 0 {
		// Opening an existing store would append this campaign's probes
		// after the old ones, and the offline-replay acceptance check
		// would then (rightly) fail against the live report — turn that
		// confusing late failure into a clear early one.
		return fmt.Errorf("campaign store %s already holds %d segment(s); pick a fresh directory", dir, len(segs))
	}
	store, err := probestore.Open(dir,
		probestore.WithMaxSegmentBytes(int64(opts.segmentKB)<<10))
	if err != nil {
		return err
	}
	// Drop the campaign's web index next to the store before the first
	// probe lands, so a concurrent "sbanalyze -live DIR" can load it
	// while the campaign is still writing (and the printed sbanalyze
	// invocation works as-is afterwards). The probe store only treats
	// seg-* files as its own, so the extra file is safe there.
	indexPath := filepath.Join(dir, "index.urls")
	if err := ablation.WriteIndexFile(indexPath, camp.IndexExpressions()); err != nil {
		return errors.Join(err, store.Close())
	}

	live := linkagePipeline(camp, opts.linkage)

	stats, err := camp.Run(context.Background(), store, live)
	if err != nil {
		return errors.Join(err, store.Close())
	}
	if err := store.Close(); err != nil {
		return err
	}
	fmt.Fprintln(w, stats)
	st := store.Stats()
	fmt.Fprintf(w, "probe store %s: %d records in %d segments (%d bytes)\n\n",
		dir, st.Persisted, st.Segments, st.LiveBytes)

	liveReport := live.Snapshot()[0].Report.(*core.LongitudinalReport)
	fmt.Fprint(w, liveReport)

	// Score the linkage against the campaign's ground truth: the
	// generator knows which cookies belonged to the same churning user.
	score := ablation.ScoreLinkage(camp, liveReport, camp.ChurnTransitions())
	if score.Links > 0 {
		fmt.Fprintf(w, "ground truth: %d/%d links correct (precision %.2f), %d/%d true rotations caught (recall %.2f)\n",
			score.Correct, score.Links, score.Precision,
			score.Correct, score.Transitions, score.Recall)
	} else {
		fmt.Fprintf(w, "ground truth: no links found (%d true rotations in the campaign)\n",
			score.Transitions)
	}

	// The acceptance check: an offline replay of the store — a separate
	// read-only open, as a later process would do — must reproduce the
	// live report deep-equal.
	offline, err := replayLongitudinal(dir, camp, opts.linkage)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(liveReport, offline) {
		return fmt.Errorf("offline replay over %s diverges from the live campaign report", dir)
	}
	fmt.Fprintf(w, "offline replay over %s deep-equals the live report\n", dir)

	fmt.Fprintf(w, "rerun the analysis any time:\n  go run ./cmd/sbanalyze -probe-store %s -index %s -longitudinal%s\n",
		dir, indexPath, linkageFlags(opts.linkage))
	return nil
}

// linkageFlags renders the non-default linkage thresholds as sbanalyze
// flags, so the printed rerun hint reproduces the report the user just
// saw rather than silently reverting to the defaults.
func linkageFlags(l core.LongitudinalConfig) string {
	var b strings.Builder
	if l.MinShared != 0 {
		fmt.Fprintf(&b, " -min-shared %d", l.MinShared)
	}
	if l.MinSharedURLs != 0 {
		fmt.Fprintf(&b, " -min-shared-urls %d", l.MinSharedURLs)
	}
	if l.MinLinkScore != 0 {
		fmt.Fprintf(&b, " -min-link-score %g", l.MinLinkScore)
	}
	return b.String()
}

// linkagePipeline builds the campaign's analysis over a freshly built
// index: one unbounded day-over-day linkage stage.
func linkagePipeline(camp *workload.Campaign, linkage core.LongitudinalConfig) *stream.Pipeline {
	return stream.NewPipeline(stream.NewLinkageStage(core.NewIndex(camp.IndexExpressions()), linkage, 0))
}

// replayLongitudinal opens the store read-only and replays every probe
// into a fresh linkage pipeline.
func replayLongitudinal(dir string, camp *workload.Campaign, linkage core.LongitudinalConfig) (*core.LongitudinalReport, error) {
	ro, err := probestore.Open(dir, probestore.ReadOnly())
	if err != nil {
		return nil, err
	}
	pl := linkagePipeline(camp, linkage)
	if err := stream.Replay(ro, pl); err != nil {
		return nil, errors.Join(err, ro.Close())
	}
	// Close surfaces errors noted during the read-only session (the
	// PR 3 contract); a replay that hit one must not report success.
	if err := ro.Close(); err != nil {
		return nil, err
	}
	return pl.Snapshot()[0].Report.(*core.LongitudinalReport), nil
}
