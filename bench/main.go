// Command bench is the repository's benchmark: four workloads over the
// real client, provider, probe store and streaming analyzers, twelve
// end-to-end metrics, and a traced run that breaks each workload down
// into per-layer figures. BENCHMARK.json at the repository root is its
// contract with the driver that runs it; README.md in this directory
// defines every workload and metric.
//
// Usage:
//
//	go run ./bench                              # the whole suite, one fresh process per workload
//	go run ./bench -trace 1                     # ... followed by the traced per-layer runs
//	go run ./bench -workload campaign -seed 7   # one workload; the last stdout line is its JSON result
//	go run ./bench -repeat 5                    # the suite five times, spread per metric against its bound
//	go run ./bench -quick                       # every path at toy size, a few seconds
//
// A single-workload run prints one JSON object as the last line of its
// standard output — {"correct", "attempted", "failed", "metrics"} — with
// every end-to-end metric (-trace 0) or every per-layer metric
// (-trace 1). Everything else goes to standard error. Results (server
// logs, span files) are written only under -out; stores, URL files and
// the sbserver binary live in a scratch directory that is removed on
// every exit path, SIGINT included.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	quick    bool
	repeat   int
	sbserver string
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload (gethash_http, gethash_batch_store, campaign, analyze); empty runs the suite")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.IntVar(&o.seconds, "seconds", 10, "length in seconds of a workload's timed phase")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced per-layer run")
	fs.StringVar(&o.out, "out", "", "results directory (default: a fresh temporary directory, path printed)")
	fs.BoolVar(&o.quick, "quick", false, "toy sizes: exercise every path in a few seconds")
	fs.IntVar(&o.repeat, "repeat", 0, "run the suite N times and report each metric's spread against its bound")
	fs.StringVar(&o.sbserver, "sbserver", "", "prebuilt cmd/sbserver binary (default: go build it into the scratch directory)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.workload != "" && !slices.Contains(workloadNames, o.workload) {
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames)
	}
	if o.seconds < 1 || o.seconds > 60 {
		return nil, fmt.Errorf("-seconds %d out of range [1, 60]", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	}
	if o.repeat < 0 || (o.repeat > 0 && o.workload != "") {
		return nil, errors.New("-repeat wants a positive count and no -workload")
	}
	return &o, nil
}

// run is main without the exit: every path returns through it, so its
// defers — scratch removal above all — run on failures and signals too.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if o.out == "" {
		if o.out, err = os.MkdirTemp("", "sbbench-out-"); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	} else if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp("", "sbbench-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch) //nolint:errcheck // best effort on the way out

	e := &env{
		ctx: ctx, seed: o.seed, seconds: float64(o.seconds), quick: o.quick,
		workers: loadWorkers(), outDir: o.out, scratch: scratch, log: stderr, bin: o.sbserver,
	}
	switch {
	case o.workload != "":
		err = runSingle(e, o, stdout)
	case o.repeat > 0:
		err = runRepeat(e, o, stdout)
	default:
		fmt.Fprintf(stderr, "results under %s\n", o.out)
		_, err = runSuite(e, o, stdout)
	}
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(stderr, "bench: interrupted")
			return 130
		}
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// runSingle measures one workload in this process and prints the
// contract line. An incorrect run still prints its line, then fails.
func runSingle(e *env, o *options, stdout io.Writer) error {
	var res *result
	var err error
	if o.trace == 1 {
		res, err = runTraced(e, o.workload)
	} else {
		res, err = runWorkload(e, o.workload)
	}
	if err != nil {
		return err
	}
	line, err := resultLine(res)
	if err != nil {
		return err
	}
	name := "result-" + o.workload + ".json"
	if o.trace == 1 {
		name = "result-" + o.workload + "-traced.json"
	}
	if err := os.WriteFile(filepath.Join(e.outDir, name), []byte(line+"\n"), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(stdout, line)
	if !res.Correct {
		return fmt.Errorf("%s: output verification failed (%d of %d operations failed)", o.workload, res.Failed, res.Attempted)
	}
	return nil
}
