package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	if _, ok := median(nil); ok {
		t.Error("median of nothing reported a value")
	}
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		in := append([]float64(nil), tc.in...)
		if got, _ := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
		if !reflect.DeepEqual(in, tc.in) {
			t.Errorf("median reordered its input: %v -> %v", in, tc.in)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	// p99 of 1000 samples is the 990th; exactly ten lie beyond it.
	if v, ok := percentile(seq(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	// One sample fewer leaves nine beyond: refuse.
	if v, ok := percentile(seq(999), 0.99); ok {
		t.Errorf("p99 of 999 samples reported %v; want a refusal", v)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of nothing reported a value")
	}
	// bestPercentile falls back to the highest quantile with ten beyond.
	v, used := bestPercentile(seq(100), 0.99)
	if v != 90 || math.Abs(used-0.90) > 1e-9 {
		t.Errorf("bestPercentile(1..100, .99) = %v at %v; want 90 at 0.90", v, used)
	}
	if v, used := bestPercentile(seq(1000), 0.99); v != 990 || used != 0.99 {
		t.Errorf("bestPercentile(1..1000, .99) = %v at %v; want 990 at 0.99", v, used)
	}
	if v, used := bestPercentile(seq(8), 0.99); v != 5 || used != 0.5 {
		t.Errorf("bestPercentile(1..8, .99) = %v at %v; want the median 5 at 0.5", v, used)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3, ok := quartiles(xs)
	if !ok || q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, %v; want 2.75, 8.25", q1, q3, ok)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3, _ = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v; want 1.5, 12", q1, q3)
	}
	if sp, ok := spread([]float64{1, 2, 4, 8, 16}); !ok || sp != (12-1.5)/4 {
		t.Errorf("spread = %v, %v; want %v", sp, ok, (12-1.5)/4)
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value reported a result")
	}
}

func TestWindowStatsMedianOfWindows(t *testing.T) {
	const warm, window = 100 * time.Millisecond, 100 * time.Millisecond
	var samples []opSample
	add := func(at time.Duration, n int, lat time.Duration) {
		for i := 0; i < n; i++ {
			samples = append(samples, opSample{end: at, lat: lat})
		}
	}
	add(50*time.Millisecond, 7, time.Second)        // warm-up: discarded
	add(150*time.Millisecond, 10, time.Millisecond) // window 0
	add(250*time.Millisecond, 20, 2*time.Millisecond)
	add(350*time.Millisecond, 30, 50*time.Millisecond) // window 2: the stalled one
	add(450*time.Millisecond, 20, 2*time.Millisecond)
	add(550*time.Millisecond, 20, 3*time.Millisecond)
	add(650*time.Millisecond, 5, time.Second) // past the last window: discarded
	ws := windowStats(samples, warm, window, 5)
	var ops []int
	for _, w := range ws {
		ops = append(ops, w.ops)
	}
	if want := []int{10, 20, 30, 20, 20}; !reflect.DeepEqual(ops, want) {
		t.Fatalf("operations per window = %v, want %v", ops, want)
	}
	// Rates 100, 200, 300, 200, 200 per second: the third quartile by the
	// exclusive method is (200+300)/2.
	if got := goodQuartile(column(ws, func(w windowStat) float64 { return w.perSec }), true); got != 250 {
		t.Errorf("good-side rate = %v/s, want 250", got)
	}
	// p50s 1000, 2000, 50000, 2000, 3000 us: the first quartile is 1500,
	// and the stalled window's 50 ms is nowhere near it.
	if got := goodQuartile(column(ws, func(w windowStat) float64 { return w.p50us }), false); got != 1500 {
		t.Errorf("good-side p50 = %v us, want 1500", got)
	}
	if ws[0].p99used != 0.5 {
		t.Errorf("a ten-sample window read its p99 at quantile %v; want the 0.5 fallback", ws[0].p99used)
	}
}

func TestGoodQuartile(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		higher bool
		want   float64
	}{
		{nil, true, 0},
		{[]float64{7}, true, 7},
		{[]float64{7, 9}, true, 9}, // too few for a quartile: the better value
		{[]float64{7, 9}, false, 7},
		{[]float64{3, 1, 2}, false, 1},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, true, 8.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, false, 2.75},
	} {
		if got := goodQuartile(tc.xs, tc.higher); got != tc.want {
			t.Errorf("goodQuartile(%v, higher=%v) = %v, want %v", tc.xs, tc.higher, got, tc.want)
		}
	}
	for _, tc := range []struct{ ops, want int }{{0, 3}, {8999, 3}, {18000, 6}, {1 << 20, 10}} {
		if got := windowsFor(tc.ops); got != tc.want {
			t.Errorf("windowsFor(%d) = %d, want %d", tc.ops, got, tc.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	// root 0..100
	//   a 10..40            (child of root)
	//     a1 15..25         (child of a)
	//   b 30..60            (child of root, overlaps a by 10)
	//   c 90..120           (child of root, runs past it: clipped at 100)
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "a1", Start: 15, End: 25},
		{ID: 4, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 120},
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - (30 + 20 + 10), // a, the part of b a did not cover, c clipped
		2: 30 - 10,
		3: 10,
		4: 30,
		5: 30,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	by := statsByName(spans)
	if by["root"].medianSelf != 40 || by["a"].medianDur != 30 || by["a"].count != 1 {
		t.Errorf("statsByName = %+v", by)
	}
}

func TestRequestStreamIsAFunctionOfTheSeed(t *testing.T) {
	gen := func(seed int64) string {
		in, err := genGethashInputs(seed, 2, 32, 16, 128)
		if err != nil {
			t.Fatal(err)
		}
		return in.streamHash()
	}
	if a, b := gen(7), gen(7); a != b {
		t.Errorf("seed 7 generated two different request streams: %s, %s", a, b)
	}
	if a, b := gen(7), gen(8); a == b {
		t.Errorf("seeds 7 and 8 generated the same request stream %s", a)
	}
}

// benchmarkJSON mirrors BENCHMARK.json's schema.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

func TestBenchmarkJSONMatches(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads = %v, want %v", names, workloadNames)
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark defines %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d] = %+v, want %s %s %s", kind, i, g, d.name, d.unit, d.better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound):
				t.Errorf("%s: bound = %v, want %v", d.name, g.Bound, d.bound)
			case bounded && (d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric carries no bound", d.name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
	}
}

func TestResultLineGolden(t *testing.T) {
	got := measurements{}
	for i, d := range endToEnd {
		got[d.name] = float64(i) + 0.5
	}
	metrics, missing := buildResult(endToEnd, got)
	if len(missing) != 0 {
		t.Fatalf("missing %v", missing)
	}
	line, err := resultLine(&result{Correct: true, Attempted: 12, Failed: 0, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(line, "\n") {
		t.Errorf("the result is not one line: %q", line)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &top); err != nil {
		t.Fatal(err)
	}
	if keys := sortedKeys(top); !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("top-level keys = %v", keys)
	}
	var ms map[string]map[string]json.RawMessage
	if err := json.Unmarshal(top["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range readBenchmarkJSON(t).EndToEnd {
		want = append(want, m.Name)
	}
	sort.Strings(want)
	if keys := sortedKeys(ms); !reflect.DeepEqual(keys, want) {
		t.Errorf("metric names = %v, want BENCHMARK.json's %v", keys, want)
	}
	for name, mv := range ms {
		if keys := sortedKeys(mv); !reflect.DeepEqual(keys, []string{"unit", "value"}) {
			t.Errorf("%s: keys = %v, want [unit value]", name, keys)
		}
	}
	if _, missing := buildResult(endToEnd, measurements{"setup_s": 1}); len(missing) != len(endToEnd)-1 {
		t.Errorf("buildResult reported %d missing metrics, want %d", len(missing), len(endToEnd)-1)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

var (
	sbserverOnce sync.Once
	sbserverPath string
	sbserverErr  error
)

// testSbserver builds cmd/sbserver once for the quick-suite tests.
func testSbserver(t *testing.T) string {
	t.Helper()
	sbserverOnce.Do(func() {
		dir, err := os.MkdirTemp("", "sbbench-test-")
		if err != nil {
			sbserverErr = err
			return
		}
		sbserverPath = filepath.Join(dir, "sbserver")
		out, err := exec.Command("go", "build", "-buildvcs=false", "-o", sbserverPath, "sbprivacy/cmd/sbserver").CombinedOutput()
		if err != nil {
			sbserverErr = err
			t.Logf("go build: %s", out)
		}
	})
	if sbserverErr != nil {
		t.Fatalf("build cmd/sbserver: %v", sbserverErr)
	}
	return sbserverPath
}

func TestMain(m *testing.M) {
	code := m.Run()
	if sbserverPath != "" {
		os.RemoveAll(filepath.Dir(sbserverPath)) //nolint:errcheck // best-effort cleanup of the test's own binary
	}
	os.Exit(code)
}

// TestQuickSuite runs all four workloads at toy size through the same
// entry point the command uses, so go test (and CI's -race) cover the
// harness: process spawn and drain, verification, every metric present.
func TestQuickSuite(t *testing.T) {
	bin := testSbserver(t)
	out := t.TempDir()
	for _, w := range workloadNames {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-quick", "-workload", w, "-seed", "3", "-out", out, "-sbserver", bin}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s", w, code, stderr.String())
		}
		res, err := parseResultLine(stdout.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", w, res.Correct, res.Attempted, res.Failed, stderr.String())
		}
		for _, d := range endToEnd {
			mv, ok := res.Metrics[d.name]
			if !ok || mv.Unit != d.unit || !(mv.Value > 0) {
				t.Errorf("%s: %s = %+v (present %v); want a positive value in %s", w, d.name, mv, ok, d.unit)
			}
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics printed, want %d", w, len(res.Metrics), len(endToEnd))
		}
	}
	// Results land under -out and nowhere else: one file per workload.
	ents, err := os.ReadDir(out)
	if err != nil || len(ents) != len(workloadNames) {
		t.Errorf("%d files under -out (err %v), want one result file per workload", len(ents), err)
	}
}

// TestQuickTrace runs the traced run at toy size and checks that it
// reports every per-layer metric and writes one span file per workload.
func TestQuickTrace(t *testing.T) {
	bin := testSbserver(t)
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-quick", "-workload", wlCampaign, "-trace", "1", "-out", out, "-sbserver", bin}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	res, err := parseResultLine(stdout.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced run incorrect:\n%s", stderr.String())
	}
	for _, d := range perLayer {
		if mv, ok := res.Metrics[d.name]; !ok || mv.Unit != d.unit {
			t.Errorf("%s = %+v (present %v); want unit %s", d.name, mv, ok, d.unit)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(perLayer))
	}
	for _, w := range workloadNames {
		b, err := os.ReadFile(filepath.Join(out, "trace-"+w+".json"))
		if err != nil {
			t.Errorf("span file: %v", err)
			continue
		}
		var tf traceFile
		if err := json.Unmarshal(b, &tf); err != nil || tf.Workload != w || len(tf.Spans) == 0 {
			t.Errorf("trace-%s.json: err %v, workload %q, %d spans", w, err, tf.Workload, len(tf.Spans))
		}
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-seconds", "0"},
		{"-trace", "2"},
		{"-repeat", "3", "-workload", wlCampaign},
		{"stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%v) = %d with %q on stdout; want exit 2 and nothing printed", args, code, stdout.String())
		}
	}
}
