package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sbprivacy/internal/blacklist"
	"sbprivacy/internal/probestore"
	"sbprivacy/internal/sbserver"
)

// Admission limits generous enough that the Limiter's token bucket and
// in-flight gate run on every request yet never reject one.
const (
	limitRate     = 1e6
	limitBurst    = 1_000_000
	limitInflight = 1024
	probeLogLimit = 65536 // bound the in-memory probe log so RSS does not track throughput
)

// serverSpec describes the provider a phase runs against.
type serverSpec struct {
	scale    int
	seed     int64
	urls     []string // planted on plantedList
	storeDir string   // "" = no probe store
}

// serverStats is the provider's final accounting, read after the drain.
type serverStats struct {
	received, dropped         uint64
	hasStore                  bool
	persisted                 uint64
	storeDropped, writeErrors uint64
	drain                     time.Duration
}

// provider is a running server under test: the spawned cmd/sbserver of
// the full-size HTTP workloads, or the same stack served in-process for
// panel and traced phases.
type provider interface {
	baseURL() string
	// peakRSS is the VmHWM, in MB, of the process the server runs in.
	peakRSS() (float64, error)
	// stop shuts the server down gracefully and returns its accounting.
	stop() (*serverStats, error)
	// kill tears the server down without accounting; safe after stop.
	kill()
}

// freePort asks the kernel for an unused loopback port. The port is
// released before the child binds it, so a bind can still lose a race;
// startChild retries with a new port when it does.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// childServer is a spawned cmd/sbserver.
type childServer struct {
	cmd     *exec.Cmd
	addr    string
	logPath string
	exited  chan struct{} // closed once Wait returned
	waitErr error
}

var errBindRace = errors.New("listen address already in use")

// startChild spawns cmd/sbserver for spec on a free port and waits until
// it accepts connections, retrying on a lost bind race.
func startChild(e *env, spec serverSpec) (*childServer, error) {
	bin, err := e.sbserverBin()
	if err != nil {
		return nil, err
	}
	dir, err := e.tempDir("sbserver")
	if err != nil {
		return nil, err
	}
	urlsPath := filepath.Join(dir, "planted.urls")
	if err := os.WriteFile(urlsPath, []byte(strings.Join(spec.urls, "\n")+"\n"), 0o644); err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		c, err := spawnChild(e, bin, dir, urlsPath, spec, attempt)
		if err == nil {
			return c, nil
		}
		if !errors.Is(err, errBindRace) || attempt == 4 {
			return nil, err
		}
		e.logf("sbserver lost the bind race, retrying on a new port")
	}
}

func spawnChild(e *env, bin, dir, urlsPath string, spec serverSpec, attempt int) (*childServer, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{
		"-addr", addr,
		"-scale", strconv.Itoa(spec.scale),
		"-seed", strconv.FormatInt(spec.seed, 10),
		"-urls", urlsPath, "-urls-list", plantedList,
		"-rate-limit", strconv.FormatFloat(limitRate, 'f', 0, 64),
		"-rate-burst", strconv.Itoa(limitBurst),
		"-max-inflight", strconv.Itoa(limitInflight),
		"-probe-log-limit", strconv.Itoa(probeLogLimit),
	}
	if spec.storeDir != "" {
		args = append(args, "-probe-store", spec.storeDir)
	}
	logPath := filepath.Join(dir, fmt.Sprintf("sbserver-%d.log", attempt))
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	cmd.SysProcAttr = childProcAttr()
	if err := cmd.Start(); err != nil {
		logFile.Close() //nolint:errcheck // already failing
		return nil, fmt.Errorf("start sbserver: %w", err)
	}
	c := &childServer{cmd: cmd, addr: addr, logPath: logPath, exited: make(chan struct{})}
	go func() {
		c.waitErr = cmd.Wait()
		logFile.Close() //nolint:errcheck // the child's writes are what matter; it has exited
		close(c.exited)
	}()

	deadline := time.NewTimer(60 * time.Second)
	defer deadline.Stop()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		conn, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err == nil {
			conn.Close() //nolint:errcheck // readiness probe only
			return c, nil
		}
		select {
		case <-c.exited:
			log, _ := os.ReadFile(logPath)
			if bytes.Contains(log, []byte("address already in use")) {
				return nil, errBindRace
			}
			return nil, fmt.Errorf("sbserver exited before serving: %v\n%s", c.waitErr, tail(log, 2048))
		case <-e.ctx.Done():
			c.kill()
			return nil, e.ctx.Err()
		case <-deadline.C:
			c.kill()
			return nil, errors.New("sbserver not ready after 60s")
		case <-tick.C:
		}
	}
}

func (c *childServer) baseURL() string { return "http://" + c.addr }

func (c *childServer) peakRSS() (float64, error) { return vmHWM(c.cmd.Process.Pid) }

var (
	reProbes = regexp.MustCompile(`probes: received=(\d+) dropped=(\d+)`)
	reStore  = regexp.MustCompile(`probe store: persisted=(\d+) segments=\d+ bytes=\d+ evicted=\d+ dropped=(\d+) writeErrors=(\d+)`)
)

// stop sends SIGINT, waits for the graceful drain and parses the
// provider's final accounting from its log.
func (c *childServer) stop() (*serverStats, error) {
	t0 := time.Now()
	if err := c.cmd.Process.Signal(syscall.SIGINT); err != nil {
		return nil, fmt.Errorf("signal sbserver: %w", err)
	}
	select {
	case <-c.exited:
	case <-time.After(60 * time.Second):
		c.kill()
		return nil, errors.New("sbserver did not drain within 60s")
	}
	st := &serverStats{drain: time.Since(t0)}
	log, err := os.ReadFile(c.logPath)
	if err != nil {
		return nil, err
	}
	if c.waitErr != nil {
		return nil, fmt.Errorf("sbserver exit: %v\n%s", c.waitErr, tail(log, 2048))
	}
	m := reProbes.FindSubmatch(log)
	if m == nil {
		return nil, fmt.Errorf("no probe accounting in the drain log:\n%s", tail(log, 2048))
	}
	st.received = mustUint(m[1])
	st.dropped = mustUint(m[2])
	if m := reStore.FindSubmatch(log); m != nil {
		st.hasStore = true
		st.persisted = mustUint(m[1])
		st.storeDropped = mustUint(m[2])
		st.writeErrors = mustUint(m[3])
	}
	return st, nil
}

func (c *childServer) kill() {
	select {
	case <-c.exited:
		return
	default:
	}
	c.cmd.Process.Kill() //nolint:errcheck // the process may have exited between the check and the kill
	<-c.exited
}

func mustUint(b []byte) uint64 {
	v, err := strconv.ParseUint(string(b), 10, 64)
	if err != nil {
		panic(err) // the regexp matched \d+
	}
	return v
}

func tail(b []byte, n int) []byte {
	if len(b) > n {
		return b[len(b)-n:]
	}
	return b
}

// inprocOpts lets the traced run put recorders around the in-process
// server's seams; the zero value serves the stack exactly as
// cmd/sbserver composes it.
type inprocOpts struct {
	// handler composes the HTTP handler; nil means
	// sbserver.Handler(s, sbserver.WithLimiter(lim)).
	handler func(s *sbserver.Server, lim *sbserver.Limiter) http.Handler
	// extra sinks are subscribed after the store.
	extra []sbserver.ProbeSink
}

// inprocServer serves the provider stack inside the benchmark process
// on a real loopback listener.
type inprocServer struct {
	server  *sbserver.Server
	limiter *sbserver.Limiter
	store   *probestore.Store
	http    *http.Server
	ln      net.Listener
	done    chan error
	stopped bool
}

// startInproc builds the same universe cmd/sbserver would and serves it.
func startInproc(spec serverSpec, opts inprocOpts) (*inprocServer, error) {
	u, err := blacklist.BuildUniverse(blacklist.UniverseConfig{
		Provider: blacklist.Google, Scale: spec.scale, Seed: spec.seed,
		ServerOptions: []sbserver.Option{sbserver.WithProbeLogLimit(probeLogLimit)},
	})
	if err != nil {
		return nil, err
	}
	if err := u.Server.AddURLs(plantedList, spec.urls); err != nil {
		return nil, err
	}
	p := &inprocServer{server: u.Server, done: make(chan error, 1)}
	if spec.storeDir != "" {
		p.store, err = probestore.Open(spec.storeDir)
		if err != nil {
			return nil, err
		}
		u.Server.Subscribe(p.store)
	}
	for _, s := range opts.extra {
		u.Server.Subscribe(s)
	}
	p.limiter = sbserver.NewLimiter(sbserver.LimitConfig{
		RatePerSec: limitRate, Burst: limitBurst, MaxInFlight: limitInflight,
	})
	h := sbserver.Handler(u.Server, sbserver.WithLimiter(p.limiter))
	if opts.handler != nil {
		h = opts.handler(u.Server, p.limiter)
	}
	p.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, p.closeStore())
	}
	p.http = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { p.done <- p.http.Serve(p.ln) }()
	return p, nil
}

func (p *inprocServer) closeStore() error {
	if p.store == nil {
		return nil
	}
	return p.store.Close()
}

func (p *inprocServer) baseURL() string { return "http://" + p.ln.Addr().String() }

func (p *inprocServer) peakRSS() (float64, error) { return vmHWM(0) }

// stop mirrors cmd/sbserver's shutdown order: listener, probe pipeline,
// probe store.
func (p *inprocServer) stop() (*serverStats, error) {
	if p.stopped {
		return nil, errors.New("in-process server stopped twice")
	}
	p.stopped = true
	t0 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := p.http.Shutdown(ctx)
	if serr := <-p.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, p.server.Close(), p.closeStore())
	if err != nil {
		return nil, err
	}
	ps := p.server.ProbeStats()
	st := &serverStats{received: ps.Received, dropped: ps.Dropped}
	if p.store != nil {
		ss := p.store.Stats()
		st.hasStore = true
		st.persisted = ss.Persisted
		st.storeDropped = ss.Dropped
		st.writeErrors = ss.WriteErrors
	}
	st.drain = time.Since(t0)
	return st, nil
}

func (p *inprocServer) kill() {
	if p.stopped {
		return
	}
	// Best effort on an already failing path: the error that led here
	// is the one reported.
	_, _ = p.stop()
}
