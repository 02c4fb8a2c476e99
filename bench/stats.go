package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the least number of samples that must lie beyond a
// percentile for it to be reported: with fewer, the figure is one or
// two outliers, not a property of the distribution.
const minBeyond = 10

// median returns the median of xs (mean of the two middle values for an
// even count) and false for an empty slice. xs is not modified.
func median(xs []float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2], true
	}
	return (s[n/2-1] + s[n/2]) / 2, true
}

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule. It refuses (ok false) when fewer than minBeyond
// samples lie beyond the rank: a p99 needs at least 1000 samples.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if n-1-rank < minBeyond {
		return 0, false
	}
	return sorted[rank], true
}

// bestPercentile returns percentile(sorted, q) when the sample supports
// it, and otherwise the value at the highest quantile that still has
// minBeyond samples beyond it, with the quantile actually used. A
// sample of minBeyond values or fewer yields its median at quantile 0.5.
func bestPercentile(sorted []float64, q float64) (v, used float64) {
	if v, ok := percentile(sorted, q); ok {
		return v, q
	}
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := n - 1 - minBeyond
	if rank < n/2 {
		return sorted[n/2], 0.5
	}
	return sorted[rank], float64(rank+1) / float64(n)
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (exclusive), the method the
// benchmark driver uses for its spread check. It needs two values.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3), true
}

// spread is the distance between the first and third quartile as a
// share of the median: the repeatability figure a metric's bound is
// held against.
func spread(xs []float64) (float64, bool) {
	q1, q3, ok := quartiles(xs)
	if !ok {
		return 0, false
	}
	med, _ := median(xs)
	if med == 0 {
		return 0, false
	}
	return math.Abs(q3-q1) / math.Abs(med), true
}

// opSample is one completed closed-loop operation: when it finished,
// measured from the start of the phase, and how long it took.
type opSample struct {
	end time.Duration
	lat time.Duration
}

// windowStat is what one measurement window saw.
type windowStat struct {
	ops     int
	perSec  float64
	p50us   float64
	p99us   float64
	p99used float64 // the quantile p99us was read at (0.99 when supported)
}

// windowStats cuts samples into n equal windows that start after a
// discarded warm-up and reports each window's rate and latency
// percentiles. An operation belongs to the window it finished in.
func windowStats(samples []opSample, warm, window time.Duration, n int) []windowStat {
	lats := make([][]float64, n)
	for _, s := range samples {
		if s.end < warm {
			continue
		}
		k := int((s.end - warm) / window)
		if k >= n {
			continue
		}
		lats[k] = append(lats[k], float64(s.lat)/float64(time.Microsecond))
	}
	out := make([]windowStat, n)
	for k, l := range lats {
		sort.Float64s(l)
		w := windowStat{ops: len(l), perSec: float64(len(l)) / window.Seconds()}
		if len(l) > 0 {
			w.p50us = l[(len(l)-1)/2]
			w.p99us, w.p99used = bestPercentile(l, 0.99)
		}
		out[k] = w
	}
	return out
}

// goodQuartile reduces repeated measurements of one quantity — the
// windows of a timed phase, the repetitions of a fixed piece of work —
// to the quartile on the side of good performance: the third for a
// rate, the first for a time. Interference on a shared machine is
// one-sided: a neighbour, a GC pause or a scheduler hiccup can only
// make a window slower. The median moves with how many windows were
// hit; the good-side quartile stays put as long as a quarter of them
// were not, and unlike the single best value it is not set by one lucky
// window. One value stands for itself; of two or three, the better one.
func goodQuartile(xs []float64, higherIsBetter bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	if len(xs) < 4 { // too few for a quartile: the better value
		best := xs[0]
		for _, x := range xs {
			if (x > best) == higherIsBetter {
				best = x
			}
		}
		return best
	}
	q1, q3, _ := quartiles(xs)
	if higherIsBetter {
		return q3
	}
	return q1
}

// windowsFor picks how many windows to cut a phase that completed ops
// operations into: as many as ten, while each still holds well over the
// thousand operations a p99 needs.
func windowsFor(ops int) int {
	return max(3, min(10, ops/3000))
}

// column extracts one figure from every window.
func column(ws []windowStat, pick func(windowStat) float64) []float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = pick(w)
	}
	return xs
}
