package prefixtable

import (
	"errors"
	"fmt"

	"sbprivacy/internal/benchkit"
)

// ReportSchema identifies the BENCH_prefixtable.json layout; bump it
// when a field changes meaning so trajectory tooling can refuse to
// compare incomparable runs (same convention as sbprivacy/loadrig/v1).
const ReportSchema = "sbprivacy/prefixtable/v1"

// GuardSlack is the tolerated regression factor on the normalized
// new/old lookup ratio when a report is guarded against a committed
// baseline. The ratio is machine-independent (both designs run on the
// same box in the same process), so the slack only has to absorb
// scheduling noise, not hardware differences.
const GuardSlack = 1.5

// Report is the machine-readable result of one serving-index benchmark
// run: the map-backed baseline index and the flat open-addressing
// prefix table measured on identical workloads at each configured
// size. cmd/experiments -idxbench writes one as BENCH_prefixtable.json;
// CI's bench-guard job re-reads it through this strict schema and
// fails the build if the flat design regresses.
type Report struct {
	// Schema is always ReportSchema.
	Schema string `json:"schema"`
	// Config echoes the run's configuration so a trajectory point is
	// self-describing.
	Config ReportConfig `json:"config"`
	// Results holds one entry per benchmarked prefix count, ascending.
	Results []SizeResult `json:"results"`
}

// ReportConfig echoes the benchmark configuration into the report.
type ReportConfig struct {
	// Sizes lists the benchmarked prefix counts.
	Sizes []int `json:"sizes"`
	// Lookups is the number of measured lookups per design and path.
	Lookups int `json:"lookups"`
	// Seed is the deterministic workload-generation seed.
	Seed int64 `json:"seed"`
}

// SizeResult compares the two serving-index designs at one size.
type SizeResult struct {
	// Prefixes is the number of distinct prefixes loaded.
	Prefixes int `json:"prefixes"`
	// Old is the map-backed striped index (the ablation baseline).
	Old DesignResult `json:"old"`
	// New is the flat open-addressing prefix table.
	New DesignResult `json:"new"`
	// SpeedupHit is Old.LookupHitNsPerOp / New.LookupHitNsPerOp — the
	// headline number: how much faster the flat table answers a
	// full-hash hit than the map it replaced.
	SpeedupHit float64 `json:"speedup_hit"`
	// SpeedupMiss is the same ratio for the miss path.
	SpeedupMiss float64 `json:"speedup_miss"`
}

// DesignResult is one design's measurements at one size.
type DesignResult struct {
	// Design names the implementation: "striped-map" or "prefixtable".
	Design string `json:"design"`
	// BuildNsPerOp is the amortized cost of one add during the bulk
	// load.
	BuildNsPerOp float64 `json:"build_ns_per_op"`
	// LookupHitNsPerOp is the cost of one present-prefix lookup.
	LookupHitNsPerOp float64 `json:"lookup_hit_ns_per_op"`
	// LookupMissNsPerOp is the cost of one absent-prefix lookup.
	LookupMissNsPerOp float64 `json:"lookup_miss_ns_per_op"`
	// LookupAllocsPerOp is allocations per lookup, measured over the
	// hit loop with a reused destination buffer: the smallest rate of a
	// few windows, since the process-wide malloc counter it reads also
	// counts other goroutines. The flat design is gated at 0.
	LookupAllocsPerOp float64 `json:"lookup_allocs_per_op"`
	// RemoveNsPerOp is the amortized cost of one remove during the
	// teardown of a sampled subset.
	RemoveNsPerOp float64 `json:"remove_ns_per_op"`
	// Bytes is the index's approximate resident footprint after the
	// bulk load.
	Bytes int64 `json:"bytes"`
}

// Validate checks the invariants every well-formed report satisfies;
// the writer refuses to emit a report that fails them and the reader
// refuses to trust one.
func (r *Report) Validate() error {
	var problems []error
	check := func(ok bool, format string, args ...any) {
		if !ok {
			problems = append(problems, fmt.Errorf(format, args...))
		}
	}
	check(r.Schema == ReportSchema, "schema = %q, want %q", r.Schema, ReportSchema)
	check(len(r.Results) > 0, "results are empty: the bench measured nothing")
	check(r.Config.Lookups > 0, "config.lookups = %d", r.Config.Lookups)
	check(len(r.Config.Sizes) == len(r.Results), "config.sizes has %d entries, results %d",
		len(r.Config.Sizes), len(r.Results))
	prev := 0
	for i, res := range r.Results {
		check(res.Prefixes > 0, "results[%d].prefixes = %d", i, res.Prefixes)
		check(res.Prefixes > prev, "results[%d].prefixes = %d not ascending", i, res.Prefixes)
		prev = res.Prefixes
		if i < len(r.Config.Sizes) {
			check(res.Prefixes == r.Config.Sizes[i],
				"results[%d].prefixes = %d, config.sizes[%d] = %d", i, res.Prefixes, i, r.Config.Sizes[i])
		}
		for _, d := range []struct {
			name string
			res  DesignResult
		}{{"old", res.Old}, {"new", res.New}} {
			check(d.res.Design != "", "results[%d].%s.design is empty", i, d.name)
			check(d.res.BuildNsPerOp > 0, "results[%d].%s.build_ns_per_op = %v", i, d.name, d.res.BuildNsPerOp)
			check(d.res.LookupHitNsPerOp > 0, "results[%d].%s.lookup_hit_ns_per_op = %v", i, d.name, d.res.LookupHitNsPerOp)
			check(d.res.LookupMissNsPerOp > 0, "results[%d].%s.lookup_miss_ns_per_op = %v", i, d.name, d.res.LookupMissNsPerOp)
			check(d.res.LookupAllocsPerOp >= 0, "results[%d].%s.lookup_allocs_per_op = %v", i, d.name, d.res.LookupAllocsPerOp)
			check(d.res.RemoveNsPerOp > 0, "results[%d].%s.remove_ns_per_op = %v", i, d.name, d.res.RemoveNsPerOp)
			check(d.res.Bytes > 0, "results[%d].%s.bytes = %v", i, d.name, d.res.Bytes)
		}
		check(ratioClose(res.SpeedupHit, res.Old.LookupHitNsPerOp/res.New.LookupHitNsPerOp),
			"results[%d].speedup_hit = %v inconsistent with old/new = %v",
			i, res.SpeedupHit, res.Old.LookupHitNsPerOp/res.New.LookupHitNsPerOp)
		check(ratioClose(res.SpeedupMiss, res.Old.LookupMissNsPerOp/res.New.LookupMissNsPerOp),
			"results[%d].speedup_miss = %v inconsistent with old/new = %v",
			i, res.SpeedupMiss, res.Old.LookupMissNsPerOp/res.New.LookupMissNsPerOp)
	}
	return errors.Join(problems...)
}

// ratioClose tolerates the rounding a JSON round trip introduces.
func ratioClose(a, b float64) bool {
	if b == 0 {
		return a == 0
	}
	q := a / b
	return q > 0.999 && q < 1.001
}

// GuardBeatsThreshold is the prefix count from which the flat design
// must beat the map-backed baseline outright. Below it the whole index
// is cache-resident and the map's shallower load chain can win; the
// serving-scale claim the guard defends is the paper-scale one.
const GuardBeatsThreshold = 1_000_000

// Guard enforces the bench-regression contract on a fresh report,
// optionally against a committed baseline:
//
//   - the flat design must perform zero allocations per lookup at
//     every size;
//   - the flat design must beat the map-backed baseline on the hit
//     path at every size >= GuardBeatsThreshold (the ROADMAP
//     memory-speed claim, measured);
//   - with a baseline, the normalized new/old hit and miss ratios must
//     not regress past GuardSlack times the baseline's ratio at the
//     same size — this one covers every size, small ones included. The
//     ratio compares two designs inside one process on one machine, so
//     it transfers across hardware where raw ns/op would not.
//
// A nil baseline skips the third check.
func Guard(rep, baseline *Report) error {
	var problems []error
	for _, res := range rep.Results {
		if res.New.LookupAllocsPerOp != 0 {
			problems = append(problems, fmt.Errorf(
				"size %d: flat lookup allocates %v allocs/op, want 0",
				res.Prefixes, res.New.LookupAllocsPerOp))
		}
		if res.Prefixes >= GuardBeatsThreshold && res.New.LookupHitNsPerOp > res.Old.LookupHitNsPerOp {
			problems = append(problems, fmt.Errorf(
				"size %d: flat hit lookup %.1f ns/op slower than map baseline %.1f ns/op",
				res.Prefixes, res.New.LookupHitNsPerOp, res.Old.LookupHitNsPerOp))
		}
		if baseline == nil {
			continue
		}
		base, ok := baselineResult(baseline, res.Prefixes)
		if !ok {
			continue
		}
		hit := res.New.LookupHitNsPerOp / res.Old.LookupHitNsPerOp
		baseHit := base.New.LookupHitNsPerOp / base.Old.LookupHitNsPerOp
		if hit > baseHit*GuardSlack {
			problems = append(problems, fmt.Errorf(
				"size %d: hit ratio new/old %.3f regressed past committed %.3f x slack %.1f",
				res.Prefixes, hit, baseHit, GuardSlack))
		}
		miss := res.New.LookupMissNsPerOp / res.Old.LookupMissNsPerOp
		baseMiss := base.New.LookupMissNsPerOp / base.Old.LookupMissNsPerOp
		if miss > baseMiss*GuardSlack {
			problems = append(problems, fmt.Errorf(
				"size %d: miss ratio new/old %.3f regressed past committed %.3f x slack %.1f",
				res.Prefixes, miss, baseMiss, GuardSlack))
		}
	}
	return errors.Join(problems...)
}

// baselineResult finds the baseline entry for a prefix count.
func baselineResult(baseline *Report, prefixes int) (SizeResult, bool) {
	for _, res := range baseline.Results {
		if res.Prefixes == prefixes {
			return res, true
		}
	}
	return SizeResult{}, false
}

// WriteFile writes the report as indented JSON to path, validating it
// first — a BENCH file that fails its own schema is worse than no file.
func (r *Report) WriteFile(path string) error {
	return benchkit.WriteFile("prefixtable", path, r, (*Report).Validate)
}

// ReadFile reads and validates a report, rejecting unknown fields so a
// schema drift between writer and reader fails loudly.
func ReadFile(path string) (*Report, error) {
	return benchkit.ReadFile("prefixtable", path, (*Report).Validate)
}
