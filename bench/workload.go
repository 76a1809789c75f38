package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"leosim"
	"leosim/internal/core"
	"leosim/internal/stats"
)

// config is one run of one workload. Only workload, seed, seconds and trace
// come from flags; the rest is fixed for real runs and shrunk by the test.
type config struct {
	workload string
	seed     int64
	seconds  float64 // length of the measured phase
	trace    bool
	scale    core.Scale
	calls    int // minimum calls behind each layer-ledger median
	setups   int // set-ups sampled for setup_s; every one after the first is a child process
}

func realConfig(workload string, seed int64, seconds float64, trace bool) config {
	sc := leosim.ReducedScale()
	sc.Seed = seed
	return config{workload: workload, seed: seed, seconds: seconds, trace: trace, scale: sc, calls: 30, setups: 3}
}

func (c config) isSweep() bool { return strings.HasPrefix(c.workload, "sweep-") }

func (c config) measured() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// warmup is the discarded serve phase before measuring: about two seconds
// at the real run length.
func (c config) warmup() time.Duration { return min(2*time.Second, c.measured()/4) }

// setup is the program's own set-up, the part setup_s times from process
// start: the process-cold NewSim and, for a served workload, server.New plus
// the prime walk until every snapshot has its oracle attached.
func setup(ctx context.Context, cfg config) (sim *core.Sim, srv *served, coldNewSimMs float64, err error) {
	t0 := time.Now()
	sim, err = leosim.NewSim(leosim.Starlink, cfg.scale)
	if err != nil {
		return nil, nil, 0, err
	}
	coldNewSimMs = float64(time.Since(t0)) / 1e6
	if !cfg.isSweep() {
		if srv, err = startServer(ctx, sim); err != nil {
			return nil, nil, 0, err
		}
	}
	return sim, srv, coldNewSimMs, nil
}

// setupOnly is the child-process mode behind setup_s's extra samples: set up,
// print seconds since process start, exit.
func setupOnly(ctx context.Context, cfg config) error {
	_, srv, _, err := setup(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Println(time.Since(processStart).Seconds())
	if srv != nil {
		return srv.stop()
	}
	return nil
}

// childSetups runs n fresh processes of this binary in -setup-only mode, one
// after another, and returns their set-up times.
func childSetups(ctx context.Context, cfg config, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.CommandContext(ctx, exe, "-setup-only", "-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(string(stdout)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child printed %q: %w", stdout, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// runWorkload performs one run — untraced for the end-to-end metrics, traced
// for the per-layer ones — and returns its record.
func runWorkload(ctx context.Context, cfg config, why string) (*result, error) {
	r := newResult(cfg.workload, cfg.trace)
	r.Why = why
	clients := runtime.NumCPU()
	r.Stamp = newStamp(cfg.seed, cfg.scale, clients)
	var err error
	if cfg.trace {
		err = runTraced(ctx, r, cfg, clients)
	} else {
		err = runUntraced(ctx, r, cfg, clients)
	}
	if err != nil {
		return nil, err
	}
	r.finish()
	return r, nil
}

// runTraced is the traced pass: the workload's own phase under the tracer,
// then the layer ledger. The workload's sim and server are unreachable by
// the time the ledger starts, so it measures from the same heap on every
// workload.
func runTraced(ctx context.Context, r *result, cfg config, clients int) error {
	coldNewSimMs, err := func() (float64, error) {
		sim, srv, coldNewSimMs, err := setup(ctx, cfg)
		if err != nil {
			return 0, err
		}
		if srv != nil {
			defer srv.stop() //nolint:errcheck // tracedServe checks stop on its success path
		}
		return coldNewSimMs, traced(ctx, r, cfg, sim, srv, clients)
	}()
	if err != nil {
		return err
	}
	runtime.GC()
	return ledger(ctx, r, cfg.scale, cfg.seed, cfg.calls, coldNewSimMs)
}

// runUntraced measures the end-to-end metrics.
func runUntraced(ctx context.Context, r *result, cfg config, clients int) error {
	sim, srv, _, err := setup(ctx, cfg)
	if err != nil {
		return err
	}
	setupS := []float64{time.Since(processStart).Seconds()}
	if srv != nil {
		defer srv.stop() //nolint:errcheck // the success path checks stop below
	}
	heapMB := liveHeapMB() // sweeps: one idle Sim; served: the primed day with its oracle rows

	if cfg.isSweep() {
		first, err := sweepRound(ctx, cfg.workload, cfg.scale) // warm-up round and the reference output
		if err != nil {
			return err
		}
		r.ResultDigest = digest(first.envelope)
		start := time.Now()
		roundS := sweepRounds(ctx, r, cfg.workload, cfg.scale, first.envelope, cfg.measured())
		r.MeasuredS = time.Since(start).Seconds()
		r.setMedian("sweep_s", "s", roundS)
		r.setMedian("latency_p50_ms", "ms", scaled(roundS, 1e-3))
		perS := make([]float64, len(roundS))
		for i, v := range roundS {
			perS[i] = float64(first.answers) / v
		}
		r.setSpread("answers_per_s", "1/s", float64(first.answers*len(roundS))/r.MeasuredS, len(roundS), perS)
	} else {
		lists, ref, err := serveInputs(ctx, cfg, sim, clients)
		if err != nil {
			return err
		}
		r.ResultDigest = tableDigest(ref)
		lists = absolutize(lists, srv.base)
		cl := newClient(clients)
		defer cl.CloseIdleConnections()
		if warm := runLoad(cl, lists, ref, cfg.warmup(), nil); warm.failed > 0 {
			r.check(false, "warm-up: %d requests failed: %v", warm.failed, warm.failures)
		}
		load := runLoad(cl, lists, ref, cfg.measured(), nil)
		load.report(r)
		if err := srv.stop(); err != nil {
			return err
		}
	}
	runtime.KeepAlive(sim)

	more, err := childSetups(ctx, cfg, cfg.setups-1)
	if err != nil {
		return err
	}
	r.setMedian("setup_s", "s", append(setupS, more...))
	r.set("live_heap_mb", "MB", heapMB)
	return nil
}

// serveInputs renders a served workload's request lists and computes the
// reference answers its clients verify against.
func serveInputs(ctx context.Context, cfg config, sim *core.Sim, clients int) (lists [][]op, ref map[query]answer, err error) {
	switch cfg.workload {
	case "serve-path":
		lists = servePathOps(sim, cfg.seed, clients)
	case "serve-paths":
		if lists, err = servePathsOps(sim, cfg.seed, clients); err != nil {
			return nil, nil, err
		}
	case "serve-whatif":
		lists = serveWhatifOps(sim, cfg.seed, clients)
	default:
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	ref, err = reference(ctx, sim, lists)
	return lists, ref, err
}

// traced is the workload's own traced phase: the same operations with spans
// recorded from the benchmark's side, bracketed by process and server
// counters. It records the per-layer metrics that depend on the workload.
func traced(ctx context.Context, r *result, cfg config, sim *core.Sim, srv *served, clients int) error {
	tr := &tracer{}
	start := time.Now()
	before := readProc()
	if cfg.isSweep() {
		if err := tracedSweep(ctx, r, cfg.workload, cfg.scale, cfg.measured(), tr); err != nil {
			return err
		}
		r.set("server.oracle_hit_ratio", "ratio", 0)
		for _, name := range []string{"server.shed_429", "server.errors_5xx"} {
			r.set(name, "count", 0)
		}
		r.set("server.response_bytes", "B", 0)
		r.set("client.latency_p99_ms", "ms", 0)
	} else {
		if err := tracedServe(ctx, r, cfg, sim, srv, clients, tr); err != nil {
			return err
		}
		for _, name := range []string{"graph.search_tree_count", "graph.kdisjoint_count", "flow.flows"} {
			r.set(name, "count", 0)
		}
	}
	r.setProc(before, readProc())
	r.MeasuredS = time.Since(start).Seconds() // the interval the proc.* deltas cover

	r.SelfTimeMs = map[string]selfMs{}
	self, coverage := tr.selfTimes()
	for name, v := range self {
		r.SelfTimeMs[name] = selfMs{SelfMs: float64(v[0]) / 1e6, Calls: v[1]}
	}
	r.set("trace.coverage", "ratio", coverage)
	r.TraceFile = filepath.Join(outDir, cfg.workload+".trace_events.json")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return tr.writeChrome(r.TraceFile)
}

// tracedServe runs the served workload half untraced, half with every 16th
// request traced, between two readings of the server's counters.
func tracedServe(ctx context.Context, r *result, cfg config, sim *core.Sim, srv *served, clients int, tr *tracer) error {
	lists, ref, err := serveInputs(ctx, cfg, sim, clients)
	if err != nil {
		return err
	}
	r.ResultDigest = tableDigest(ref)
	lists = absolutize(lists, srv.base)
	cl := newClient(clients)
	defer cl.CloseIdleConnections()

	c0, err := srv.readCounters(cl)
	if err != nil {
		return err
	}
	plain := runLoad(cl, lists, ref, cfg.measured()/2, nil)
	withSpans := runLoad(cl, lists, ref, cfg.measured()/2, tr)
	c1, err := srv.readCounters(cl)
	if err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return err
	}

	all := loadResult{
		samples:  append(plain.samples, withSpans.samples...),
		wallS:    plain.wallS + withSpans.wallS,
		failures: append(plain.failures, withSpans.failures...),
		failed:   plain.failed + withSpans.failed,
	}
	r.Attempted = len(all.samples) + all.failed
	r.Failed += all.failed
	r.Failures = append(r.Failures, all.failures...)
	if len(plain.samples) == 0 || len(withSpans.samples) == 0 {
		return fmt.Errorf("traced %s: a phase completed no request", cfg.workload)
	}
	lat := stats.Summarize(all.latenciesMs())
	r.setSpread("client.latency_p99_ms", "ms", lat.P99, lat.N, nil)
	p0, p1 := median(plain.latenciesMs()), median(withSpans.latenciesMs())
	r.set("trace.overhead_share", "ratio", (p1-p0)/p0)

	var bytes float64
	for _, s := range all.samples {
		bytes += float64(s.bytes)
	}
	r.set("server.response_bytes", "B", bytes/float64(len(all.samples)))

	requests := c1.requests - c0.requests
	lookups := (c1.hits - c0.hits) + (c1.misses - c0.misses)
	hitRatio, oracleRatio := 0.0, 0.0
	if lookups > 0 {
		hitRatio = (c1.hits - c0.hits) / lookups
	}
	if requests > 0 {
		oracleRatio = (c1.oracleHits - c0.oracleHits) / requests
	}
	builds, evictions := c1.builds-c0.builds, c1.evictions-c0.evictions
	r.set("snapcache.hit_ratio", "ratio", hitRatio)
	r.set("snapcache.builds", "count", builds)
	r.set("snapcache.evictions", "count", evictions)
	r.set("server.oracle_hit_ratio", "ratio", oracleRatio)
	r.set("server.shed_429", "count", c1.shed-c0.shed)
	r.set("server.errors_5xx", "count", c1.errors5xx-c0.errors5xx)

	// The workloads must exercise the paths they claim to.
	if cfg.workload == "serve-whatif" {
		r.check(oracleRatio == 0 && builds > 0, "serve-whatif is answered by the live kernel on masked builds (oracle_hit_ratio=%g, builds=%g)", oracleRatio, builds)
	} else {
		r.check(hitRatio == 1 && oracleRatio == 1 && builds == 0 && evictions == 0,
			"%s is answered from the primed, oracle-attached day (hit_ratio=%g, oracle_hit_ratio=%g, builds=%g, evictions=%g)",
			cfg.workload, hitRatio, oracleRatio, builds, evictions)
	}
	return nil
}
