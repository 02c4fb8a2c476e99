package main

import (
	"fmt"
	"runtime/debug"
)

// runTraced is the traced run: a shortened in-process copy of every
// workload with span recorders at the seams, the layers without a seam
// replayed in isolation over the same generated inputs, and one span
// file per workload under the results directory. Every run covers all
// four workloads' layers — the driver's contract has each traced run
// report every per-layer metric — and trace.overhead_ratio is the named
// workload's own.
func runTraced(e *env, name string) (*result, error) {
	got := measurements{}
	res := &result{Correct: true}
	overhead := map[string]float64{}
	absorb := func(ph string, out *phaseOut) {
		// buildResult publishes the names perLayer lists; the phase's
		// other diagnostics stay here.
		for k, v := range out.diag {
			got[k] = v
		}
		overhead[ph] = out.diag["overhead_ratio"]
		res.Attempted += out.attempted
		res.Failed += out.failed
		for _, p := range out.problems {
			res.Correct = false
			e.logf("FAIL traced %s: %s", ph, p)
		}
		debug.FreeOSMemory()
	}

	httpOut, httpRun, err := tracedGethash(e, false)
	if err != nil {
		return nil, fmt.Errorf("traced %s: %w", wlGethashHTTP, err)
	}
	absorb(wlGethashHTTP, httpOut)
	batchOut, _, err := tracedGethash(e, true)
	if err != nil {
		return nil, fmt.Errorf("traced %s: %w", wlGethashBatch, err)
	}
	absorb(wlGethashBatch, batchOut)
	campOut, camp, err := tracedCampaign(e)
	if err != nil {
		return nil, fmt.Errorf("traced %s: %w", wlCampaign, err)
	}
	absorb(wlCampaign, campOut)
	anaOut, err := tracedAnalyze(e)
	if err != nil {
		return nil, fmt.Errorf("traced %s: %w", wlAnalyze, err)
	}
	absorb(wlAnalyze, anaOut)

	// Layers with no seam, replayed in isolation over the same inputs.
	urls := make([]string, 0, len(camp.Events))
	for _, ev := range camp.Events {
		urls = append(urls, ev.URL)
	}
	if err := microURL(urls, got); err != nil {
		return nil, err
	}
	// CheckURL hashes every decomposition once for its prefix and every
	// locally hit one again in full.
	got["hashx.hashes_per_url"] = got["urlx.decomps_per_url"] + campOut.diag["hit_exprs_per_url"]
	if err := microWire(e, httpRun.in, tracedGethashSize(e.quick).scale, got); err != nil {
		return nil, err
	}
	microIndex(e.seed, httpRun.downloaded, got)
	microLimiter(got)

	got["trace.overhead_ratio"] = overhead[name]
	var missing []string
	res.Metrics, missing = buildResult(perLayer, got)
	if len(missing) > 0 {
		return nil, fmt.Errorf("traced %s: metrics not measured: %v", name, missing)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, nil
}
