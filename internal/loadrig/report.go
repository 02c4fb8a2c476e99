package loadrig

import (
	"errors"
	"fmt"

	"sbprivacy/internal/benchkit"
)

// ReportSchema identifies the BENCH_loadrig.json layout; bump it when a
// field changes meaning so trajectory tooling can refuse to compare
// incomparable runs.
const ReportSchema = "sbprivacy/loadrig/v1"

// Report is the machine-readable result of one rig run — the unit of
// the repo's performance trajectory. Every run of cmd/experiments
// -loadrig writes one as BENCH_loadrig.json; CI's bench-smoke job and
// the golden-schema test both round-trip it through this struct.
type Report struct {
	// Schema is always ReportSchema.
	Schema string `json:"schema"`
	// Config echoes the run's configuration so a trajectory point is
	// self-describing.
	Config ReportConfig `json:"config"`
	// DurationSeconds is the measured wall time of the request phase.
	DurationSeconds float64 `json:"duration_seconds"`
	// Requests counts lookups that completed successfully.
	Requests uint64 `json:"requests"`
	// Failures counts lookups that failed after exhausting retries.
	Failures uint64 `json:"failures"`
	// ThroughputRPS is Requests / DurationSeconds.
	ThroughputRPS float64 `json:"throughput_rps"`
	// Latency summarizes the merged per-worker histograms.
	Latency LatencySummary `json:"latency"`
	// Client is the fleet-side retry accounting.
	Client ClientStats `json:"client"`
	// Server is the provider-side admission and probe accounting.
	Server ServerStats `json:"server"`
	// MatchedEntries counts full-hash entries returned across all
	// successful lookups (the hit traffic share actually hitting).
	MatchedEntries uint64 `json:"matched_entries"`
}

// ReportConfig echoes the rig configuration into the report.
type ReportConfig struct {
	// Workers is the concurrent fleet width.
	Workers int `json:"workers"`
	// Clients is the number of distinct client cookies.
	Clients int `json:"clients"`
	// RequestsPerWorker is the per-worker request budget (0 = timed run).
	RequestsPerWorker int `json:"requests_per_worker"`
	// DurationSeconds is the configured duration for timed runs.
	DurationSeconds float64 `json:"duration_seconds"`
	// Scale is the blacklist scale divisor.
	Scale int `json:"scale"`
	// Seed is the generation seed.
	Seed int64 `json:"seed"`
	// RatePerSec is the server token-bucket rate (0 = unlimited).
	RatePerSec float64 `json:"rate_per_sec"`
	// Burst is the server token-bucket capacity.
	Burst int `json:"burst"`
	// MaxInFlight is the server concurrency gate (0 = unlimited).
	MaxInFlight int `json:"max_in_flight"`
	// MaxRetries is the client retry budget per request.
	MaxRetries int `json:"max_retries"`
}

// LatencySummary carries the histogram quantiles in microseconds
// (float: sub-microsecond latencies are real on loopback).
type LatencySummary struct {
	// P50Micros through P99Micros are upper-bound quantiles from the
	// log-scale histogram (≤12.5% relative error).
	P50Micros float64 `json:"p50_micros"`
	// P95Micros is the 95th-percentile latency.
	P95Micros float64 `json:"p95_micros"`
	// P99Micros is the 99th-percentile latency.
	P99Micros float64 `json:"p99_micros"`
	// MeanMicros is the arithmetic mean.
	MeanMicros float64 `json:"mean_micros"`
	// MinMicros is the fastest observed lookup.
	MinMicros float64 `json:"min_micros"`
	// MaxMicros is the slowest observed lookup.
	MaxMicros float64 `json:"max_micros"`
}

// ClientStats is the fleet-side view: what the shared RetryTransport
// absorbed so the run could finish.
type ClientStats struct {
	// Attempts counts wire calls including retries.
	Attempts uint64 `json:"attempts"`
	// Retries counts re-attempts.
	Retries uint64 `json:"retries"`
	// RateLimited429 counts 429 responses the fleet observed.
	RateLimited429 uint64 `json:"rate_limited_429"`
	// ServerErrors5xx counts 5xx responses observed.
	ServerErrors5xx uint64 `json:"server_errors_5xx"`
	// TransportErrors counts network-level failures observed.
	TransportErrors uint64 `json:"transport_errors"`
}

// ServerStats is the provider-side view: admission control and the
// probe pipeline.
type ServerStats struct {
	// Allowed counts requests admitted by the limiter (all requests
	// when no limits are configured).
	Allowed uint64 `json:"allowed"`
	// RateLimited counts token-bucket rejections.
	RateLimited uint64 `json:"rate_limited"`
	// Overloaded counts in-flight-gate rejections.
	Overloaded uint64 `json:"overloaded"`
	// ProbesReceived counts probes entering the pipeline.
	ProbesReceived uint64 `json:"probes_received"`
	// ProbesDropped counts probes shed by the pipeline.
	ProbesDropped uint64 `json:"probes_dropped"`
	// ProbesEvicted counts probes rotated out of the bounded log.
	ProbesEvicted uint64 `json:"probes_evicted"`
}

// Validate checks the invariants every well-formed report satisfies;
// the golden-schema test and the -loadrig command both gate on it
// before a report is written or trusted.
func (r *Report) Validate() error {
	var problems []error
	check := func(ok bool, format string, args ...any) {
		if !ok {
			problems = append(problems, fmt.Errorf(format, args...))
		}
	}
	check(r.Schema == ReportSchema, "schema = %q, want %q", r.Schema, ReportSchema)
	check(r.Config.Workers > 0, "config.workers = %d", r.Config.Workers)
	check(r.Config.Clients > 0, "config.clients = %d", r.Config.Clients)
	check(r.DurationSeconds > 0, "duration_seconds = %v", r.DurationSeconds)
	check(r.Requests > 0, "requests = 0: the rig measured nothing")
	check(r.ThroughputRPS > 0, "throughput_rps = %v", r.ThroughputRPS)
	check(r.Latency.P50Micros > 0, "latency.p50_micros = %v", r.Latency.P50Micros)
	check(r.Latency.P95Micros >= r.Latency.P50Micros, "p95 %v < p50 %v",
		r.Latency.P95Micros, r.Latency.P50Micros)
	check(r.Latency.P99Micros >= r.Latency.P95Micros, "p99 %v < p95 %v",
		r.Latency.P99Micros, r.Latency.P95Micros)
	check(r.Latency.MaxMicros >= r.Latency.P99Micros, "max %v < p99 %v",
		r.Latency.MaxMicros, r.Latency.P99Micros)
	check(r.Client.Attempts >= r.Requests, "attempts %d < requests %d",
		r.Client.Attempts, r.Requests)
	check(r.Server.ProbesReceived > 0, "server.probes_received = 0")
	return errors.Join(problems...)
}

// WriteFile writes the report as indented JSON to path, validating it
// first — a BENCH file that fails its own schema is worse than no file.
func (r *Report) WriteFile(path string) error {
	return benchkit.WriteFile("loadrig", path, r, (*Report).Validate)
}

// ReadFile reads and validates a report, rejecting unknown fields so a
// schema drift between writer and reader fails loudly.
func ReadFile(path string) (*Report, error) {
	return benchkit.ReadFile("loadrig", path, (*Report).Validate)
}
