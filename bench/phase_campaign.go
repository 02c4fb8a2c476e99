package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"sbprivacy/internal/core"
	"sbprivacy/internal/probestore"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/workload"
)

// campaignSize sizes one campaign phase.
type campaignSize struct {
	clients int
	days    int
	minReps int // repetitions of Campaign.Run at least; more while budget lasts
	budget  time.Duration
	setups  int
}

func (sz campaignSize) config(seed int64) workload.Config {
	return workload.Config{Clients: sz.clients, Days: sz.days, Seed: seed}
}

// runCampaign is the paper-reproduction path: Campaign.Run through the
// real client and server with a probe store and a longitudinal
// correlator subscribed, repeated into fresh directories.
func runCampaign(e *env, sz campaignSize) (*phaseOut, error) {
	out := newPhaseOut()
	var camp *workload.Campaign
	var index *core.Index
	var setups []float64
	for k := 0; k < sz.setups; k++ {
		t0 := time.Now()
		var err error
		if camp, err = workload.Generate(sz.config(e.seed)); err != nil {
			return nil, err
		}
		index = core.NewIndex(camp.IndexExpressions())
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.m["setup_s"], _ = median(setups)

	var rates []float64
	var firstSum, firstDir string
	var firstReport *core.LongitudinalReport
	start := time.Now()
	for rep := 0; rep < sz.minReps || time.Since(start) < sz.budget; rep++ {
		dir, err := e.tempDir("campaign")
		if err != nil {
			return nil, err
		}
		store, err := probestore.Open(dir)
		if err != nil {
			return nil, err
		}
		live := core.NewLongitudinal(index, core.LongitudinalConfig{})
		t0 := time.Now()
		stats, err := camp.Run(e.ctx, store, live)
		if err != nil {
			return nil, errors.Join(err, store.Close())
		}
		if err := store.Close(); err != nil {
			return nil, err
		}
		report := live.Report()
		elapsed := time.Since(t0)
		rates = append(rates, float64(stats.Events)/elapsed.Seconds())
		out.attempted += int64(stats.Events)

		st := store.Stats()
		if stats.Probes != st.Persisted || st.WriteErrors != 0 || st.Dropped != 0 {
			out.problemf("campaign rep %d: provider recorded %d probes, store persisted %d (writeErrors=%d dropped=%d)",
				rep, stats.Probes, st.Persisted, st.WriteErrors, st.Dropped)
		}
		sum, err := hashDir(dir)
		if err != nil {
			return nil, err
		}
		if rep == 0 {
			firstSum, firstDir, firstReport = sum, dir, report
			continue
		}
		if sum != firstSum {
			out.problemf("campaign rep %d: store differs byte-wise from rep 0", rep)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	out.m["campaign_visits_per_s"] = goodQuartile(rates, true)

	// The store of rep 0 replayed offline — a separate read-only open,
	// as a later process would do — must reproduce the live report.
	offline := core.NewLongitudinal(core.NewIndex(camp.IndexExpressions()), core.LongitudinalConfig{})
	ro, err := probestore.Open(firstDir, probestore.ReadOnly())
	if err != nil {
		return nil, err
	}
	err = ro.Replay(func(p sbserver.Probe) error {
		offline.Observe(p)
		return nil
	})
	if err = errors.Join(err, ro.Close()); err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(firstReport, offline.Report()) {
		out.problemf("offline replay of the campaign store diverges from the live longitudinal report")
	}
	return out, os.RemoveAll(firstDir)
}

// hashDir fingerprints a directory: the sorted file names and every
// file's bytes.
func hashDir(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	names := make([]string, 0, len(ents))
	for _, ent := range ents {
		names = append(names, ent.Name())
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%s\n", name)
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close() //nolint:errcheck // read-side close
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
