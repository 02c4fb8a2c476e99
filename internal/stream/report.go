package stream

import (
	"errors"
	"fmt"

	"sbprivacy/internal/benchkit"
)

// BenchSchema identifies the BENCH_stream.json layout; bump it when a
// field changes meaning so trajectory tooling can refuse to compare
// incomparable runs.
const BenchSchema = "sbprivacy/stream/v1"

// BenchReport is the machine-readable result of one streaming-pipeline
// benchmark (cmd/experiments -streambench): sustained ingest rate
// through a full pipeline and the peak resident state the window
// actually held. tools/doccheck -bench reads it back through the
// strict schema, like every other BENCH_*.json in the repo.
type BenchReport struct {
	// Schema is always BenchSchema.
	Schema string `json:"schema"`
	// Config echoes the run's configuration so a trajectory point is
	// self-describing.
	Config BenchConfig `json:"config"`
	// Stages names the pipeline's stages in fan-out order.
	Stages []string `json:"stages"`
	// Probes is the number of probes pumped through the pipeline.
	Probes int64 `json:"probes"`
	// DurationSeconds is the measured wall time of the pump phase.
	DurationSeconds float64 `json:"duration_seconds"`
	// ProbesPerSec is Probes / DurationSeconds — the sustained ingest
	// rate of the full pipeline.
	ProbesPerSec float64 `json:"probes_per_sec"`
	// PeakResidentCookies is the largest ResidentCookies gauge any
	// stage reported at any sample point.
	PeakResidentCookies int `json:"peak_resident_cookies"`
	// PeakResidentDays is the largest ResidentDays gauge any stage
	// reported at any sample point; never exceeds the window when one
	// is configured.
	PeakResidentDays int `json:"peak_resident_days"`
	// EvictedRecords sums the final EvictedRecords counters across
	// stages — the state the window bound actually discarded.
	EvictedRecords int64 `json:"evicted_records"`
	// LateDropped sums the final LateDropped counters across stages;
	// zero for an in-order feed.
	LateDropped int64 `json:"late_dropped"`
}

// BenchConfig echoes the benchmark configuration into the report.
type BenchConfig struct {
	// Clients is the campaign population size.
	Clients int `json:"clients"`
	// Days is the campaign length in virtual days.
	Days int `json:"days"`
	// Seed is the campaign generation seed.
	Seed int64 `json:"seed"`
	// WindowDays is the pipeline's sliding window (0 = unbounded).
	WindowDays int `json:"window_days"`
}

// Validate checks the invariants every well-formed report satisfies;
// the golden-schema test and -streambench both gate on it before a
// report is written or trusted.
func (r *BenchReport) Validate() error {
	var problems []error
	check := func(ok bool, format string, args ...any) {
		if !ok {
			problems = append(problems, fmt.Errorf(format, args...))
		}
	}
	check(r.Schema == BenchSchema, "schema = %q, want %q", r.Schema, BenchSchema)
	check(r.Config.Clients > 0, "config.clients = %d", r.Config.Clients)
	check(r.Config.Days > 0, "config.days = %d", r.Config.Days)
	check(r.Config.WindowDays >= 0, "config.window_days = %d", r.Config.WindowDays)
	check(len(r.Stages) > 0, "stages is empty: the pipeline measured nothing")
	check(r.Probes > 0, "probes = 0: the pipeline measured nothing")
	check(r.DurationSeconds > 0, "duration_seconds = %v", r.DurationSeconds)
	check(r.ProbesPerSec > 0, "probes_per_sec = %v", r.ProbesPerSec)
	check(r.PeakResidentCookies > 0, "peak_resident_cookies = %d", r.PeakResidentCookies)
	check(r.PeakResidentDays > 0, "peak_resident_days = %d", r.PeakResidentDays)
	if r.Config.WindowDays > 0 {
		check(r.PeakResidentDays <= r.Config.WindowDays,
			"peak_resident_days %d exceeds the %d-day window: eviction is not bounding state",
			r.PeakResidentDays, r.Config.WindowDays)
	}
	check(r.EvictedRecords >= 0, "evicted_records = %d", r.EvictedRecords)
	check(r.LateDropped >= 0, "late_dropped = %d", r.LateDropped)
	return errors.Join(problems...)
}

// WriteBenchFile writes the report as indented JSON to path,
// validating it first — a BENCH file that fails its own schema is
// worse than no file.
func (r *BenchReport) WriteBenchFile(path string) error {
	return benchkit.WriteFile("stream", path, r, (*BenchReport).Validate)
}

// ReadBenchFile reads and validates a report, rejecting unknown fields
// so a schema drift between writer and reader fails loudly.
func ReadBenchFile(path string) (*BenchReport, error) {
	return benchkit.ReadFile("stream", path, (*BenchReport).Validate)
}
