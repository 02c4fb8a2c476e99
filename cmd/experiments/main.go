// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run table5            # one experiment
//	experiments -run all               # everything
//	experiments -run figure5 -hosts 20000
//	experiments -campaign -days 7 -clients 1000 -seed 42
//
// Scale knobs: -hosts controls the synthetic corpus size (Figures 5/6,
// Table 8); -scale divides the blacklist/dataset sizes (Tables 9-12).
//
// Campaign mode (-campaign) generates a deterministic multi-day
// synthetic browsing population, drives it through the real
// client/server stack into a persistent probe store with virtual-clock
// timestamps, runs the longitudinal day-over-day re-identification
// analysis live, scores the cookie linkage against the generator's
// ground truth, and verifies an offline replay of the store reproduces
// the live report exactly. -campaign-store picks the store directory
// (default: a fresh temp directory, printed and kept).
//
// Performance is measured by the benchmark under bench/ (bash
// bench/run.sh).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"sbprivacy/internal/core"
	"sbprivacy/internal/corpus"
	"sbprivacy/internal/exp"
	"sbprivacy/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		id     = flag.String("run", "all", "experiment id or 'all'; known: "+fmt.Sprint(exp.IDs()))
		hosts  = flag.Int("hosts", 3000, "synthetic corpus hosts per profile")
		scale  = flag.Int("scale", 100, "blacklist scale divisor")
		seed   = flag.Int64("seed", 2015, "generation seed")
		csvDir = flag.String("csv", "", "directory to write the per-host Figure 5/6 series as CSV")

		campaign     = flag.Bool("campaign", false, "run a multi-day synthetic workload campaign instead of experiments")
		days         = flag.Int("days", 7, "campaign length in virtual days")
		clients      = flag.Int("clients", 1000, "campaign population size")
		churnName    = flag.String("churn", "daily", "campaign cookie-churn schedule: daily, weekly, random or coordinated")
		campStore    = flag.String("campaign-store", "", "probe-store directory for the campaign (default: fresh temp dir, printed and kept)")
		campSegKB    = flag.Int("campaign-segment-kb", 256, "campaign probe-store segment rotation size in KiB")
		minShared    = flag.Int("min-shared", 0, "linkage: least shared profile elements per link (0 = correlator default)")
		minSharedURL = flag.Int("min-shared-urls", 0, "linkage: least shared exact URLs per link (0 = correlator default, negative allows none)")
		minLinkScore = flag.Float64("min-link-score", 0, "linkage: least overlap-coefficient score per link (0 = correlator default)")

		ablate       = flag.Bool("ablate", false, "run the mitigation ablation grid over the campaign instead of experiments")
		ablateStore  = flag.String("ablate-store", "", "root directory for the per-cell probe stores (default: fresh temp dir, printed and kept)")
		ablateVerify = flag.Bool("ablate-verify", true, "re-run every cell and check its report reproduces deep-equal")
	)
	flag.Parse()

	churn, err := workload.ParseChurnSchedule(*churnName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 2
	}
	linkage := core.LongitudinalConfig{
		MinShared:     *minShared,
		MinSharedURLs: *minSharedURL,
		MinLinkScore:  *minLinkScore,
	}

	if *ablate {
		err := runAblate(os.Stdout, ablateOptions{
			days: *days, clients: *clients, seed: *seed, churn: churn,
			storeRoot: *ablateStore, segmentKB: *campSegKB,
			verify:  *ablateVerify,
			linkage: linkage,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: ablate: %v\n", err)
			return 1
		}
		return 0
	}

	if *campaign {
		err := runCampaign(os.Stdout, campaignOptions{
			days: *days, clients: *clients, seed: *seed, churn: churn,
			storeDir: *campStore, segmentKB: *campSegKB,
			linkage: linkage,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: campaign: %v\n", err)
			return 1
		}
		return 0
	}

	// The process edge mints the root context: ^C or SIGTERM cancels it,
	// and every experiment's transport calls observe the cancellation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := exp.Config{Hosts: *hosts, Scale: *scale, Seed: *seed}
	var results []*exp.Result
	if *id == "all" {
		var err error
		results, err = exp.RunAll(ctx, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 1
		}
	} else {
		r, err := exp.Run(ctx, *id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 1
		}
		results = append(results, r)
	}
	for _, r := range results {
		fmt.Printf("=== %s: %s ===\n%s\n", r.ID, r.Title, r.Text)
	}

	if *csvDir != "" {
		if err := writeCSVSeries(*csvDir, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: csv: %v\n", err)
			return 1
		}
		fmt.Printf("wrote figure series CSVs to %s\n", *csvDir)
	}
	return 0
}

// writeCSVSeries regenerates the full per-host series of Figures 5 and 6
// for both profiles, one CSV per (figure, profile).
func writeCSVSeries(dir string, cfg exp.Config) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, profile := range []corpus.Profile{corpus.ProfileAlexa, corpus.ProfileRandom} {
		c, err := corpus.Generate(corpus.Config{Profile: profile, Hosts: cfg.Hosts, Seed: cfg.Seed})
		if err != nil {
			return err
		}
		stats := corpus.ComputeStats(c, corpus.StatsOptions{PrefixBits: 16})
		for figure, write := range map[string]func(*corpus.DatasetStats, *os.File) error{
			"figure5": func(ds *corpus.DatasetStats, f *os.File) error { return ds.WriteFigure5CSV(f) },
			"figure6": func(ds *corpus.DatasetStats, f *os.File) error { return ds.WriteFigure6CSV(f) },
		} {
			path := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", figure, profile))
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := write(stats, f); err != nil {
				f.Close() //nolint:errcheck // already failing
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}
