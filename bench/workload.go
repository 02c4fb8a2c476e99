package main

import (
	"fmt"
	"runtime/debug"
	"time"
)

// sizes is one complete sizing of the four phases.
type sizes struct {
	http, batch gethashSize
	campaign    campaignSize
	analyze     analyzeSize
}

// secs converts a float second count to a Duration.
func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// fullSizes is the sizing of a workload's own phase: what the baseline
// is measured at. seconds is the length of the timed part.
func fullSizes(seconds float64) sizes {
	g := gethashSize{
		child: true, scale: 5, planted: 4096, cookies: 4096, ring: 1 << 16,
		warm: 700 * time.Millisecond, measure: secs(seconds), servers: 3,
	}
	return sizes{
		http:     g,
		batch:    g,
		campaign: campaignSize{clients: 1500, days: 14, minReps: 3, budget: secs(seconds), setups: 5},
		analyze: analyzeSize{
			clients: 1000, days: 14, amplify: 32, segment: 1 << 20, window: 28, queries: 20000,
			ingestMin: 3, replayMin: 3, histMin: 3, budget: secs(seconds), setups: 3,
		},
	}
}

// panelSizes is the sizing of the three phases a workload does not own.
// The driver's contract has every run report every end-to-end metric,
// so each workload follows its own full-size phase with the other three
// at this fixed, smaller size, in-process.
func panelSizes() sizes {
	g := gethashSize{
		scale: 40, planted: 1024, cookies: 1024, ring: 1 << 14,
		warm: 500 * time.Millisecond, measure: 2500 * time.Millisecond, servers: 1,
	}
	return sizes{
		http:     g,
		batch:    g,
		campaign: campaignSize{clients: 600, days: 14, minReps: 4, setups: 1},
		analyze: analyzeSize{
			clients: 1000, days: 14, amplify: 8, segment: 1 << 20, window: 28, queries: 10000,
			ingestMin: 8, replayMin: 3, histMin: 3, setups: 1,
		},
	}
}

// quickSizes is the toy sizing of -quick: every code path, no claim to
// a meaningful figure.
func quickSizes(own bool) sizes {
	g := gethashSize{
		child: own, scale: 2000, planted: 64, cookies: 64, ring: 256,
		warm: 20 * time.Millisecond, measure: 150 * time.Millisecond, servers: 1,
	}
	return sizes{
		http:     g,
		batch:    g,
		campaign: campaignSize{clients: 12, days: 2, minReps: 2, setups: 1},
		analyze: analyzeSize{
			clients: 12, days: 3, amplify: 4, segment: 4 << 10, window: 2, queries: 60,
			ingestMin: 2, replayMin: 1, histMin: 1, setups: 1,
		},
	}
}

// phase runs one of the four phases at the given sizing.
func phase(e *env, name string, sz sizes) (*phaseOut, error) {
	switch name {
	case wlGethashHTTP:
		return runGethash(e, false, sz.http)
	case wlGethashBatch:
		return runGethash(e, true, sz.batch)
	case wlCampaign:
		return runCampaign(e, sz.campaign)
	case wlAnalyze:
		return runAnalyze(e, sz.analyze)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runWorkload measures one workload with tracing off: its own phase at
// full size first — set-up time and peak memory are the own phase's —
// then the other three phases at panel size, so the result carries
// every end-to-end metric.
func runWorkload(e *env, name string) (*result, error) {
	own, panel := fullSizes(e.seconds), panelSizes()
	if e.quick {
		own, panel = quickSizes(true), quickSizes(false)
	}
	got := measurements{}
	res := &result{Correct: true}
	for i, ph := range phaseOrder(name) {
		sz := panel
		if i == 0 {
			sz = own
		}
		t0 := time.Now()
		out, err := phase(e, ph, sz)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ph, err)
		}
		if i == 0 {
			// The HTTP phases report their server's VmHWM; the
			// in-process ones are charged this process's, read before
			// any panel phase can raise it.
			if _, ok := out.m["peak_rss_mb"]; !ok {
				rss, err := vmHWM(0)
				if err != nil {
					return nil, err
				}
				out.m["peak_rss_mb"] = rss
			}
		} else {
			delete(out.m, "setup_s")
			delete(out.m, "peak_rss_mb")
			// store_bytes_per_probe has two full-size owners; a panel
			// phase supplies it only where no phase has yet.
			if _, have := got["store_bytes_per_probe"]; have {
				delete(out.m, "store_bytes_per_probe")
			}
		}
		if err := got.merge(out.m); err != nil {
			return nil, err
		}
		res.Attempted += out.attempted
		res.Failed += out.failed
		for _, p := range out.problems {
			res.Correct = false
			e.logf("FAIL %s/%s: %s", name, ph, p)
		}
		e.logf("%-20s %-20s %6.1fs", name, ph, time.Since(t0).Seconds())
		// Hand the phase's garbage back before the next one starts, so
		// a panel phase is not measured under its predecessor's heap.
		debug.FreeOSMemory()
	}
	var missing []string
	res.Metrics, missing = buildResult(endToEnd, got)
	if len(missing) > 0 {
		return nil, fmt.Errorf("%s: metrics not measured: %v", name, missing)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, nil
}

// phaseOrder lists the phases of a workload's run: its own first, then
// the panel. gethash_batch_store and analyze both own
// store_bytes_per_probe; on the other two workloads the analyze panel,
// whose feed is a pure function of the seed, supplies it, so analyze
// runs before the batch panel there.
func phaseOrder(own string) []string {
	order := []string{own}
	for _, n := range []string{wlAnalyze, wlGethashHTTP, wlGethashBatch, wlCampaign} {
		if n != own {
			order = append(order, n)
		}
	}
	return order
}
