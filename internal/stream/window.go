package stream

import "sort"

// windowed is the day-keyed per-cookie state shared by the built-in
// stages: a map of UTC day → cookie → tally with a sliding window and
// deterministic eviction. T is the tally type (core.ClientTally,
// core.DayTally). Not safe for concurrent use; the owning stage holds
// its lock around every call.
type windowed[T any] struct {
	// window is the sliding window size in days; 0 means unbounded (no
	// eviction — the batch semantics).
	window int
	// flat files every day under the one key 0, so unbounded state is
	// one tally per cookie; seen then holds the UTC days observed, which
	// is what ResidentDays counts. Only an unbounded state of a stage
	// whose report merges its days is flat.
	flat bool
	seen map[int64]struct{}
	// watermark is the newest day Advance has seen; valid when started.
	watermark int64
	started   bool
	// days is the resident state.
	days map[int64]map[string]*T
	// cookieDays counts resident day buckets per cookie, so
	// ResidentCookies stays O(1) to read and exact under eviction.
	// A flat state leaves it empty: its one bucket is the cookie set.
	cookieDays map[string]int
	stats      Stats
}

// newWindowed builds an empty windowed state with the given window
// size in days (0 = unbounded). mergesDays says the owning stage's
// report merges the days, so an unbounded state need not keep them
// apart.
func newWindowed[T any](window int, mergesDays bool) windowed[T] {
	if window < 0 {
		window = 0
	}
	w := windowed[T]{
		window:     window,
		days:       make(map[int64]map[string]*T),
		cookieDays: make(map[string]int),
	}
	if mergesDays && window == 0 {
		w.flat = true
		w.seen = make(map[int64]struct{})
	}
	return w
}

// horizon returns the oldest resident day permitted by the watermark,
// or false when the state is unbounded or no watermark exists yet.
func (w *windowed[T]) horizon() (int64, bool) {
	if w.window == 0 || !w.started {
		return 0, false
	}
	return w.watermark - int64(w.window) + 1, true
}

// advance raises the watermark to day and evicts every resident day
// older than the new horizon. probesOf reports how many probes a tally
// represents, charged to EvictedRecords as its bucket is discarded.
// Eviction is a pure function of the sequence of Advance days, so two
// runs over the same feed evict identically.
func (w *windowed[T]) advance(day int64, probesOf func(*T) int) {
	if w.started && day <= w.watermark {
		return
	}
	w.watermark = day
	w.started = true
	h, bounded := w.horizon()
	if !bounded {
		return
	}
	// Resident days are at most `window` many, so sweeping the map keys
	// is O(window) — collect, sort, then delete, so eviction order is
	// deterministic too.
	var expired []int64
	for d := range w.days {
		if d < h {
			expired = append(expired, d)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
	for _, d := range expired {
		for c, t := range w.days[d] {
			w.stats.EvictedRecords += int64(probesOf(t))
			if w.cookieDays[c]--; w.cookieDays[c] == 0 {
				delete(w.cookieDays, c)
			}
		}
		delete(w.days, d)
	}
}

// bucket returns the tally for (day, cookie), creating it if needed,
// or ok=false when the day already fell past the eviction horizon (the
// probe is counted as late and must be ignored).
func (w *windowed[T]) bucket(day int64, cookie string, mk func() *T) (*T, bool) {
	if h, bounded := w.horizon(); bounded && day < h {
		w.stats.LateDropped++
		return nil, false
	}
	if w.flat {
		w.seen[day] = struct{}{}
		day = 0
	}
	cookies := w.days[day]
	if cookies == nil {
		// A day sees about as many cookies as the day before it: start
		// at that size instead of growing there by doubling.
		cookies = make(map[string]*T, len(w.days[day-1]))
		w.days[day] = cookies
	}
	t := cookies[cookie]
	if t == nil {
		t = mk()
		cookies[cookie] = t
		if !w.flat {
			w.cookieDays[cookie]++
		}
	}
	w.stats.Observed++
	return t, true
}

// snapshotStats returns the accounting with the Resident* gauges
// filled from the current state.
func (w *windowed[T]) snapshotStats() Stats {
	st := w.stats
	st.ResidentDays = len(w.days)
	st.ResidentCookies = len(w.cookieDays)
	if w.flat {
		st.ResidentDays = len(w.seen)
		st.ResidentCookies = len(w.days[0])
	}
	return st
}

// sortedDays returns the resident day keys in ascending order — the
// deterministic iteration order every snapshot uses.
func (w *windowed[T]) sortedDays() []int64 {
	out := make([]int64, 0, len(w.days))
	for d := range w.days {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
