package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

// suiteResult is one pass over the four workloads.
type suiteResult map[string]*result

// runSuite measures every workload, each in a fresh process — its own
// heap, GC state and VmHWM — by re-executing this binary with
// -workload. With -trace 1 the traced runs follow the untraced ones.
func runSuite(e *env, o *options, stdout io.Writer) (suiteResult, error) {
	bin, err := e.sbserverBin() // build once; every child reuses it
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	pass := func(trace int) (suiteResult, error) {
		res := suiteResult{}
		for _, w := range workloadNames {
			args := []string{
				"-workload", w, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(trace),
				"-out", o.out, "-sbserver", bin,
			}
			if o.quick {
				args = append(args, "-quick")
			}
			cmd := exec.CommandContext(e.ctx, self, args...)
			cmd.Stderr = e.log
			cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGINT) }
			cmd.WaitDelay = 30 * time.Second
			var buf bytes.Buffer
			cmd.Stdout = &buf
			runErr := cmd.Run()
			r, perr := parseResultLine(buf.Bytes())
			if perr != nil {
				return nil, fmt.Errorf("%s: %v (%v)", w, perr, runErr)
			}
			if runErr != nil {
				return nil, fmt.Errorf("%s: %v", w, runErr)
			}
			res[w] = r
		}
		return res, nil
	}
	res, err := pass(0)
	if err != nil {
		return nil, err
	}
	printTable(stdout, "end-to-end (tracing off; * = the workload's own full-size phase)", endToEnd, res, true)
	if o.trace == 1 {
		traced, err := pass(1)
		if err != nil {
			return nil, err
		}
		printTable(stdout, "per layer (traced run)", perLayer, traced, false)
	}
	return res, nil
}

// parseResultLine decodes the contract line: the last non-empty line of
// a single-workload run's standard output.
func parseResultLine(stdout []byte) (*result, error) {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	last := lines[len(lines)-1]
	if last == "" {
		return nil, fmt.Errorf("no result line")
	}
	dec := json.NewDecoder(strings.NewReader(last))
	dec.DisallowUnknownFields()
	var r result
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &r, nil
}

func printTable(w io.Writer, title string, defs []metricDef, res suiteResult, bounds bool) {
	fmt.Fprintf(w, "\n%s\n", title)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "metric\tunit")
	for _, name := range workloadNames {
		fmt.Fprintf(tw, "\t%s", name)
	}
	if bounds {
		fmt.Fprint(tw, "\tbetter\tbound")
	}
	fmt.Fprintln(tw)
	for _, d := range defs {
		fmt.Fprintf(tw, "%s\t%s", d.name, d.unit)
		for _, name := range workloadNames {
			mark := ""
			if bounds && d.ownedBy(name) {
				mark = "*"
			}
			fmt.Fprintf(tw, "\t%s%s", formatValue(res[name].Metrics[d.name].Value), mark)
		}
		if bounds {
			fmt.Fprintf(tw, "\t%s\t%g%%", d.better, d.bound*100)
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprint(tw, "attempted\tcount")
	for _, name := range workloadNames {
		fmt.Fprintf(tw, "\t%d", res[name].Attempted)
	}
	fmt.Fprint(tw, "\nfailed\tcount")
	for _, name := range workloadNames {
		fmt.Fprintf(tw, "\t%d", res[name].Failed)
	}
	fmt.Fprintln(tw)
	tw.Flush() //nolint:errcheck // a tabwriter over stdout; a short write is not actionable here
}

// formatValue prints a figure with about five significant digits.
func formatValue(v float64) string {
	switch a := math.Abs(v); {
	case a == 0 || a >= 1000:
		return strconv.FormatFloat(v, 'f', 0, 64)
	case a >= 10:
		return strconv.FormatFloat(v, 'f', 2, 64)
	default:
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
}

// runRepeat runs the suite o.repeat times and holds each end-to-end
// metric's spread — the distance between the quartiles of its values as
// a share of their median — to the metric's bound, failing when one is
// wider: the check the benchmark's repeatability claim rests on.
func runRepeat(e *env, o *options, stdout io.Writer) error {
	if o.repeat < 2 {
		return fmt.Errorf("-repeat %d: a spread needs at least two runs", o.repeat)
	}
	values := map[string]map[string][]float64{} // workload -> metric -> runs
	untraced := *o
	untraced.trace = 0 // a spread is of end-to-end metrics only
	for i := 0; i < o.repeat; i++ {
		fmt.Fprintf(stdout, "\n=== run %d of %d ===\n", i+1, o.repeat)
		res, err := runSuite(e, &untraced, stdout)
		if err != nil {
			return err
		}
		for w, r := range res {
			if !r.Correct {
				return fmt.Errorf("run %d: %s failed its output verification", i+1, w)
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, mv := range r.Metrics {
				values[w][name] = append(values[w][name], mv.Value)
			}
		}
	}
	fmt.Fprintf(stdout, "\nspread over %d runs at seed %d (* = own full-size phase)\n", o.repeat, o.seed)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmin\tmedian\tmax\tspread\tbound\t")
	var wide []string
	for _, w := range workloadNames {
		for _, d := range endToEnd {
			xs := values[w][d.name]
			lo, hi := xs[0], xs[0]
			for _, x := range xs {
				lo, hi = min(lo, x), max(hi, x)
			}
			med, _ := median(xs)
			sp, _ := spread(xs)
			verdict := ""
			// setup_s is exempt, as in the driver's own check: it is
			// guarded only through its median.
			if sp > d.bound && d.name != "setup_s" {
				verdict = "TOO WIDE"
				wide = append(wide, w+"/"+d.name)
			}
			mark := ""
			if d.ownedBy(w) {
				mark = "*"
			}
			fmt.Fprintf(tw, "%s\t%s%s\t%s\t%s\t%s\t%.2f%%\t%g%%\t%s\n", w, d.name, mark,
				formatValue(lo), formatValue(med), formatValue(hi), sp*100, d.bound*100, verdict)
		}
	}
	tw.Flush() //nolint:errcheck // a tabwriter over stdout; a short write is not actionable here
	if len(wide) > 0 {
		return fmt.Errorf("spread exceeds the bound on %v", wide)
	}
	return nil
}
