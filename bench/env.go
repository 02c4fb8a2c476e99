package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// env is what every phase of one process shares: the run's context
// (cancelled on SIGINT/SIGTERM), its seed and sizes, where results go,
// and a scratch directory that is removed on every exit path.
type env struct {
	ctx     context.Context
	seed    int64
	seconds float64 // length of the own phase's timed part
	quick   bool
	workers int
	outDir  string // results: trace files, server logs
	scratch string // stores, url files, built binaries; removed on exit
	log     io.Writer

	bin string // sbserver binary; built on first use when empty
	seq int    // scratch sub-directory counter
}

// loadWorkers is the load generator's goroutine and connection count:
// one per core up to four, so the generator never outnumbers the cores
// it shares with the server under test.
func loadWorkers() int {
	return min(runtime.NumCPU(), 4)
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, format+"\n", args...)
}

// tempDir makes a fresh directory under the scratch root.
func (e *env) tempDir(name string) (string, error) {
	e.seq++
	dir := filepath.Join(e.scratch, fmt.Sprintf("%s-%03d", name, e.seq))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// sbserverBin returns the sbserver binary under test, building
// cmd/sbserver into the scratch directory on first use unless -sbserver
// named a prebuilt one. The build is not part of any timed figure.
func (e *env) sbserverBin() (string, error) {
	if e.bin == "" {
		out := filepath.Join(e.scratch, "sbserver")
		cmd := exec.CommandContext(e.ctx, "go", "build", "-buildvcs=false", "-o", out, "sbprivacy/cmd/sbserver")
		if b, err := cmd.CombinedOutput(); err != nil {
			return "", fmt.Errorf("go build cmd/sbserver: %v\n%s", err, b)
		}
		e.bin = out
	}
	return e.bin, nil
}

// vmHWM reads a process's peak resident set size ("VmHWM" in
// /proc/PID/status) in MB. pid 0 means this process.
func vmHWM(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, fmt.Errorf("peak rss: %w", err)
				}
				return kb / 1000, nil
			}
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in %s", path)
}
