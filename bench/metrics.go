package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
)

// The four workloads, in the order the suite runs them.
const (
	wlGethashHTTP  = "gethash_http"
	wlGethashBatch = "gethash_batch_store"
	wlCampaign     = "campaign"
	wlAnalyze      = "analyze"
)

var workloadNames = []string{wlGethashHTTP, wlGethashBatch, wlCampaign, wlAnalyze}

// metricDef fixes one metric's unit and direction; end-to-end metrics
// also carry the regression bound BENCHMARK.json publishes, and the
// workloads whose full-size phase is the metric's baseline row.
type metricDef struct {
	name   string
	unit   string
	better string   // "higher" or "lower"
	bound  float64  // end-to-end only
	owners []string // workloads measuring it at full size; nil = every workload
}

// ownedBy reports whether workload w measures the metric at full size.
func (d metricDef) ownedBy(w string) bool {
	return d.owners == nil || slices.Contains(d.owners, w)
}

// endToEnd is the end-to-end metric list, mirrored by BENCHMARK.json
// (TestBenchmarkJSONMatches holds the two together).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, nil},
	{"peak_rss_mb", "MB", "lower", 0.25, nil},
	{"gethash_rps", "1/s", "higher", 0.25, []string{wlGethashHTTP}},
	{"gethash_p50_us", "us", "lower", 0.25, []string{wlGethashHTTP}},
	{"gethash_p99_us", "us", "lower", 0.25, []string{wlGethashHTTP}},
	{"batch_lookups_per_s", "1/s", "higher", 0.25, []string{wlGethashBatch}},
	{"batch_frame_p99_us", "us", "lower", 0.25, []string{wlGethashBatch}},
	{"store_bytes_per_probe", "B", "lower", 0.03, []string{wlGethashBatch, wlAnalyze}},
	{"campaign_visits_per_s", "1/s", "higher", 0.25, []string{wlCampaign}},
	{"ingest_probes_per_s", "1/s", "higher", 0.25, []string{wlAnalyze}},
	{"replay_probes_per_s", "1/s", "higher", 0.25, []string{wlAnalyze}},
	{"history_qps", "1/s", "higher", 0.25, []string{wlAnalyze}},
}

// perLayer is the per-layer metric list of the traced run, named
// module.metric. None carries a bound.
var perLayer = []metricDef{
	{name: "urlx.canonicalize_ns", unit: "ns", better: "lower"},
	{name: "urlx.decompose_ns", unit: "ns", better: "lower"},
	{name: "urlx.decomps_per_url", unit: "count", better: "lower"},
	{name: "urlx.allocs_per_url", unit: "count", better: "lower"},
	{name: "hashx.sumprefix_ns", unit: "ns", better: "lower"},
	{name: "hashx.hashes_per_url", unit: "count", better: "lower"},

	{name: "prefixdb.contains_ns", unit: "ns", better: "lower"},
	{name: "prefixdb.contains_per_url", unit: "count", better: "lower"},
	{name: "prefixdb.apply_ms", unit: "ms", better: "lower"},
	{name: "prefixdb.bytes_per_prefix", unit: "B", better: "lower"},
	{name: "sbclient.update_ms", unit: "ms", better: "lower"},
	{name: "sbclient.checkurl_self_ns", unit: "ns", better: "lower"},
	{name: "sbclient.checkurl_allocs", unit: "count", better: "lower"},
	{name: "sbclient.local_hit_ratio", unit: "ratio", better: "higher"},
	{name: "sbclient.cache_hit_ratio", unit: "ratio", better: "higher"},

	{name: "wire.req_encode_ns", unit: "ns", better: "lower"},
	{name: "wire.req_decode_ns", unit: "ns", better: "lower"},
	{name: "wire.resp_encode_ns", unit: "ns", better: "lower"},
	{name: "wire.resp_decode_ns", unit: "ns", better: "lower"},
	{name: "wire.batch_decode_ns_per_req", unit: "ns", better: "lower"},
	{name: "wire.req_bytes", unit: "B", better: "lower"},
	{name: "wire.resp_bytes", unit: "B", better: "lower"},
	{name: "wire.allocs_per_roundtrip", unit: "count", better: "lower"},

	{name: "http.hop_ns", unit: "ns", better: "lower"},
	{name: "http.rtt_p999_us", unit: "us", better: "lower"},
	{name: "http.rtt_max_us", unit: "us", better: "lower"},
	{name: "sbclient.retry_ratio", unit: "ratio", better: "lower"},
	{name: "limiter.allow_ns", unit: "ns", better: "lower"},
	{name: "limiter.rejected_ratio", unit: "ratio", better: "lower"},
	{name: "sbserver.handler_ns", unit: "ns", better: "lower"},
	{name: "sbserver.fullhashes_ns", unit: "ns", better: "lower"},
	{name: "sbserver.fullhashes_allocs", unit: "count", better: "lower"},

	{name: "prefixtable.lookup_hit_ns", unit: "ns", better: "lower"},
	{name: "prefixtable.lookup_miss_ns", unit: "ns", better: "lower"},
	{name: "prefixtable.bytes_per_prefix", unit: "B", better: "lower"},

	{name: "probelog.deliver_lag_p50_us", unit: "us", better: "lower"},
	{name: "probelog.deliver_lag_p99_us", unit: "us", better: "lower"},
	{name: "probelog.dropped_ratio", unit: "ratio", better: "lower"},
	{name: "sbserver.flush_ns", unit: "ns", better: "lower"},
	{name: "sbserver.drain_ms", unit: "ms", better: "lower"},

	{name: "probestore.observe_ns", unit: "ns", better: "lower"},
	{name: "probestore.observe_p999_us", unit: "us", better: "lower"},
	{name: "probestore.flush_ms", unit: "ms", better: "lower"},
	{name: "probestore.close_ms", unit: "ms", better: "lower"},
	{name: "probestore.segments", unit: "count", better: "lower"},
	{name: "probestore.write_errors", unit: "count", better: "lower"},
	{name: "probestore.open_ms", unit: "ms", better: "lower"},
	{name: "probestore.replay_ns_per_probe", unit: "ns", better: "lower"},
	{name: "probestore.history_hit_p50_us", unit: "us", better: "lower"},
	{name: "probestore.history_absent_p50_us", unit: "us", better: "lower"},
	{name: "probestore.segment_opens_per_query", unit: "count", better: "lower"},
	{name: "probestore.bloom_skip_ratio", unit: "ratio", better: "higher"},

	{name: "stream.observe_ns", unit: "ns", better: "lower"},
	{name: "stream.reident_observe_ns", unit: "ns", better: "lower"},
	{name: "stream.linkage_observe_ns", unit: "ns", better: "lower"},
	{name: "stream.snapshot_ms", unit: "ms", better: "lower"},
	{name: "stream.peak_resident_cookies", unit: "count", better: "lower"},
	{name: "stream.evicted_records", unit: "count", better: "higher"},
	{name: "stream.late_dropped", unit: "count", better: "lower"},
	{name: "core.index_build_ms", unit: "ms", better: "lower"},
	{name: "core.longitudinal_report_s", unit: "s", better: "lower"},
	{name: "workload.generate_ms", unit: "ms", better: "lower"},
	{name: "workload.run_s", unit: "s", better: "lower"},

	{name: "layers.sum_us", unit: "us", better: "lower"},
	{name: "layers.e2e_p50_us", unit: "us", better: "lower"},
	{name: "layers.unexplained_ratio", unit: "ratio", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "higher"},
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a single-workload run prints as the last line of
// its standard output: the driver's contract.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measurements collects named figures while phases run.
type measurements map[string]float64

// merge copies src into m; a name set twice is a harness bug.
func (m measurements) merge(src measurements) error {
	for k, v := range src {
		if _, dup := m[k]; dup {
			return fmt.Errorf("metric %s measured twice", k)
		}
		m[k] = v
	}
	return nil
}

// buildResult renders got against the metric list defs: every listed
// metric must have been measured, nothing else is printed. The second
// return lists what was missing.
func buildResult(defs []metricDef, got measurements) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	sort.Strings(missing)
	return out, missing
}

// resultLine marshals r as the single contract line.
func resultLine(r *result) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	return string(b), nil
}
