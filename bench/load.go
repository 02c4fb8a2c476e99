package main

import (
	"context"
	"sync"
	"time"
)

// loadOut is what one closed-loop phase observed.
type loadOut struct {
	samples   []opSample // successful operations only
	attempted int64
	failed    int64
}

// closedLoop runs op from `workers` goroutines for warm+measure, each
// goroutine issuing its next operation only when the previous one
// returned: every simulated browser waits for its answer. op gets the
// worker number and that worker's operation counter and reports whether
// the operation succeeded; a failed operation leaves no latency sample,
// so it is missing from every rate and percentile.
func closedLoop(ctx context.Context, workers int, total time.Duration, op func(worker, i int) bool) loadOut {
	type workerOut struct {
		samples   []opSample
		attempted int64
		failed    int64
	}
	outs := make([]workerOut, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o := &outs[w]
			o.samples = make([]opSample, 0, 1<<16)
			for i := 0; ctx.Err() == nil; i++ {
				t0 := time.Now()
				if t0.Sub(start) >= total {
					return
				}
				ok := op(w, i)
				t1 := time.Now()
				o.attempted++
				if !ok {
					o.failed++
					continue
				}
				o.samples = append(o.samples, opSample{end: t1.Sub(start), lat: t1.Sub(t0)})
			}
		}(w)
	}
	wg.Wait()
	var out loadOut
	for i := range outs {
		out.samples = append(out.samples, outs[i].samples...)
		out.attempted += outs[i].attempted
		out.failed += outs[i].failed
	}
	return out
}
