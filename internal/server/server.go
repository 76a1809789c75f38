// Package server turns a Sim into a long-running constellation query
// service: an HTTP JSON API answering path, latency and reachability
// questions against any snapshot of the moving constellation, under any
// fault mask, concurrently.
//
// The load-bearing pieces:
//
//   - One snapcache.Cache of snapshot views, keyed by the validated request
//     spec (instant, mode, and the fault as typed values — never a string
//     parsed back). Concurrent queries for the same epoch build the network
//     once (singleflight) and share the immutable CSR graph across
//     goroutines; a what-if is that same graph plus the sorted ids of the
//     links its mask cuts, searched with them banned, never a copy. An entry
//     bound keeps memory flat, and evicts oracle-carrying entries last, so
//     one-shot what-ifs never push out the primed day they are views of.
//   - Per-request routing scratch comes from the graph package's
//     SearchState pool, so steady-state queries allocate almost nothing in
//     the kernel.
//   - Admission control: at most MaxInFlight queries run at once; beyond
//     that the server sheds with 429 + Retry-After instead of queueing into
//     collapse. Every query gets a deadline, and the request context is
//     propagated into core — all the way into the Dijkstra kernel — so a
//     disconnected client stops costing CPU within a poll interval.
//   - Lifecycle: Serve(ctx, ln) runs until ctx is cancelled (the CLI wires
//     SIGINT/SIGTERM), then drains in-flight requests gracefully before
//     returning.
package server

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"leosim/internal/core"
	"leosim/internal/fault"
	"leosim/internal/graph"
	"leosim/internal/safe"
	"leosim/internal/snapcache"
	"leosim/internal/telemetry"
)

// Config assembles a Server.
type Config struct {
	// Sim is the simulation to serve queries against (required).
	Sim *core.Sim
	// CacheSize bounds resident snapshot graphs (default: snapshots per
	// day + 4, enough for a whole-day latency scan per mode at small
	// scales without evictions thrashing).
	CacheSize int
	// BuildTimeout bounds each snapshot build. Zero means no bound beyond
	// the per-request deadline.
	BuildTimeout time.Duration
	// BreakerThreshold trips the snapshot-build circuit breaker after this
	// many consecutive build failures (default 5; negative disables). While
	// open, misses fail fast with 503 + Retry-After instead of hammering a
	// broken build path; resident snapshots keep serving.
	BreakerThreshold int
	// BreakerCooldown is how long the open breaker waits before one probe
	// build (default: snapcache's own 5s).
	BreakerCooldown time.Duration
	// PrimeSnapshots, when set, builds the whole snapshot schedule for both
	// modes in the background once Serve starts and deposits every snapshot
	// into the cache — so the first client to ask for any snapshot of the
	// day hits a warm entry instead of paying a cold build. With priming on,
	// the default cache is sized to hold both modes' full day.
	PrimeSnapshots bool
	// PrimeOracles piggybacks distance-oracle construction on the primer:
	// every primed snapshot also gets its path oracle built and attached, so
	// the first batch (or single path query) against any snapshot of the day
	// skips the one-time build. Requires PrimeSnapshots: New rejects it alone.
	PrimeOracles bool
	// Chaos, when non-nil, injects seeded faults (errors, delays, panics)
	// into every snapshot build — the chaos-testing hook. Nil in production.
	Chaos *fault.Chaos
	// MaxInFlight caps concurrently executing queries; excess requests
	// receive 429 (default 2×GOMAXPROCS).
	MaxInFlight int
	// RequestTimeout bounds each query (default 15s).
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown once the serve context is
	// cancelled (default 10s).
	DrainTimeout time.Duration
	// Logger receives one structured line per request (id, method, path,
	// status, duration, stage timings). Nil discards logs.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ — off by
	// default: profiling endpoints expose internals and cost CPU when hit.
	EnablePprof bool
}

func (c *Config) fillDefaults() error {
	if c.Sim == nil {
		return fmt.Errorf("server: Config.Sim is required")
	}
	if c.PrimeOracles && !c.PrimeSnapshots {
		return fmt.Errorf("server: Config.PrimeOracles rides the snapshot primer and requires PrimeSnapshots (serve -oracle needs -prime)")
	}
	if c.CacheSize <= 0 {
		c.CacheSize = c.Sim.Scale.NumSnapshots + 4
		if c.PrimeSnapshots {
			// Priming deposits both modes' whole day; an LRU sized for one
			// mode would evict the first mode while priming the second.
			c.CacheSize = 2*c.Sim.Scale.NumSnapshots + 8
		}
		if c.CacheSize < 16 {
			c.CacheSize = 16
		}
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	switch {
	case c.BreakerThreshold < 0:
		c.BreakerThreshold = 0 // disabled explicitly
	case c.BreakerThreshold == 0:
		c.BreakerThreshold = 5
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 15 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
	return nil
}

// discardHandler drops every record (the default when Config.Logger is nil).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// Server is the query service. Create one with New; it is safe for
// arbitrary handler concurrency.
type Server struct {
	cfg     Config
	cache   *snapcache.Cache[snapSpec, *graph.View]
	sem     chan struct{}
	times   []time.Time
	started time.Time
	mux     *http.ServeMux
	log     *slog.Logger
	reqID   atomic.Int64 // monotonic request id for log correlation

	// reg holds this server's counters, gauges and per-route latency
	// histograms. Per-server (not the process-global telemetry registry) so
	// several instances — e.g. test servers — never share a namespace. The
	// cache's counters surface as pull-style gauges on the same registry.
	reg                                   *telemetry.Registry
	requests, shed, cancelled, timeouts   *telemetry.Counter
	badRequests, notFound, internalErrors *telemetry.Counter
	degraded, breakerTrips                *telemetry.Counter
	inflight                              *telemetry.Gauge

	// Oracle serving state: per-spec singleflight for the one-time builds,
	// plus counters for builds paid and attached oracles reused.
	oracleMu       sync.Mutex
	oracleInflight map[snapSpec]*oracleCall
	oracleBuilds   *telemetry.Counter
	oracleHits     *telemetry.Counter
	// How answers without an oracle of their own were given: read off the
	// healthy parent's tree (the fault missed the route, or the pair was
	// already unreachable), or searched by the live kernel.
	survivingAnswers, kernelAnswers *telemetry.Counter

	// lastDegraded is the unix-nano time of the most recent degraded
	// (fallback) serve; /healthz reports "degraded" while it is recent.
	lastDegraded atomic.Int64
}

// New builds a Server for cfg.
func New(cfg Config) (*Server, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:            cfg,
		sem:            make(chan struct{}, cfg.MaxInFlight),
		times:          cfg.Sim.SnapshotTimes(),
		started:        time.Now(),
		oracleInflight: map[snapSpec]*oracleCall{},
	}
	s.cache = snapcache.New(s.buildSnapshot, snapcache.Options{
		Capacity:         cfg.CacheSize,
		BuildTimeout:     cfg.BuildTimeout,
		BreakerThreshold: cfg.BreakerThreshold,
		BreakerCooldown:  cfg.BreakerCooldown,
		// fault.Chaos is nil-safe, so the hook is wired unconditionally. The
		// build context still carries the triggering request's trace ID, so
		// injected faults join to requests in the flight recorder.
		BuildHook: cfg.Chaos.BuildHook,
	})
	s.log = cfg.Logger

	// The process registry holds the per-stage histograms (graph build,
	// search, cache lookup, …) that /metrics reports; a serve process always
	// records them.
	telemetry.Enable()

	s.reg = telemetry.NewRegistry()
	s.requests = s.reg.Counter("requests")
	s.shed = s.reg.Counter("shed429")
	s.cancelled = s.reg.Counter("cancelled")
	s.timeouts = s.reg.Counter("timeouts")
	s.badRequests = s.reg.Counter("badRequests")
	s.notFound = s.reg.Counter("notFound")
	s.internalErrors = s.reg.Counter("internalErrors")
	// Degraded-mode accounting: responses answered from a fallback snapshot
	// (200 with a "degraded" field where a plain server would 5xx), and
	// requests rejected by the open build breaker (503).
	s.degraded = s.reg.Counter("degradedResponses")
	s.breakerTrips = s.reg.Counter("breakerRejects")
	s.inflight = s.reg.Gauge("inflight")
	// Oracle accounting: one-time builds paid (on demand or by the primer)
	// and queries answered from an already-attached oracle.
	s.oracleBuilds = s.reg.Counter("oracleBuilds")
	s.oracleHits = s.reg.Counter("oracleHits")
	// oracleHits keeps meaning "the resolved key had its own oracle": a what-if
	// answered from its healthy parent's tree counts here instead.
	s.survivingAnswers = s.reg.Counter("survivingRouteAnswers")
	s.kernelAnswers = s.reg.Counter("kernelAnswers")
	// Snapshot-cache counters as pull-style gauges: read at snapshot time
	// from the cache's own atomics, never copied on the request path.
	// singleflight_shares is the misses that piggybacked on another
	// caller's build instead of paying for their own.
	s.reg.RegisterGaugeFunc("cache_hits", func() int64 { return s.cache.Stats().Hits })
	s.reg.RegisterGaugeFunc("cache_misses", func() int64 { return s.cache.Stats().Misses })
	s.reg.RegisterGaugeFunc("cache_builds", func() int64 { return s.cache.Stats().Builds })
	s.reg.RegisterGaugeFunc("cache_evictions", func() int64 { return s.cache.Stats().Evictions })
	s.reg.RegisterGaugeFunc("cache_singleflight_shares", func() int64 {
		st := s.cache.Stats()
		return st.Misses - st.Builds
	})
	s.reg.RegisterGaugeFunc("cache_resident", func() int64 { return int64(s.cache.Len()) })
	// Self-healing surface: failed, abandoned and adopted builds, and the
	// live breaker position (0 closed, 1 half-open, 2 open) with its
	// consecutive-failure streak and closed→open trips.
	s.reg.RegisterGaugeFunc("cache_errors", func() int64 { return s.cache.Stats().Errors })
	s.reg.RegisterGaugeFunc("cache_primed", func() int64 { return s.cache.Stats().Primed })
	s.reg.RegisterGaugeFunc("cache_build_timeouts", func() int64 { return s.cache.Stats().Timeouts })
	s.reg.RegisterGaugeFunc("cache_late_builds", func() int64 { return s.cache.Stats().LateBuilds })
	s.reg.RegisterGaugeFunc("cache_fast_fails", func() int64 { return s.cache.Stats().FastFails })
	s.reg.RegisterGaugeFunc("cache_attachments", func() int64 { return s.cache.Stats().Attachments })
	s.reg.RegisterGaugeFunc("breaker_state", func() int64 { return int64(s.cache.Breaker().State) })
	s.reg.RegisterGaugeFunc("build_failure_streak", func() int64 { return s.cache.Breaker().FailureStreak })
	s.reg.RegisterGaugeFunc("breaker_opens", func() int64 { return s.cache.Stats().BreakerOpens })
	// The label memory of the resident oracles: an evicted entry's oracle
	// leaves the sum with it.
	s.reg.RegisterGaugeFunc("oracle_bytes", s.oracleBytes)

	s.mux = http.NewServeMux()
	// Query endpoints: admission-controlled and deadline-bounded, with a
	// per-route latency histogram and one structured log line per request.
	s.mux.HandleFunc("GET /v1/path", s.instrumented("path", slog.LevelInfo, s.limited(s.handlePath)))
	s.mux.HandleFunc("GET /v1/latency", s.instrumented("latency", slog.LevelInfo, s.limited(s.handleLatency)))
	s.mux.HandleFunc("GET /v1/reachability", s.instrumented("reachability", slog.LevelInfo, s.limited(s.handleReachability)))
	// Batched multi-pair path queries, answered from per-snapshot distance
	// oracles (built once per snapshot epoch, singleflighted, attached to
	// the snapshot's cache entry).
	s.mux.HandleFunc("POST /v1/paths", s.instrumented("paths", slog.LevelInfo, s.limited(s.handleBatchPaths)))
	// Introspection endpoints: never shed, so probes and dashboards keep
	// working while the query pool is saturated; logged at debug so a
	// scraper doesn't drown the request log.
	s.mux.HandleFunc("GET /v1/snapshots", s.instrumented("snapshots", slog.LevelDebug, s.handleSnapshots))
	s.mux.HandleFunc("GET /healthz", s.instrumented("healthz", slog.LevelDebug, s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrumented("metrics", slog.LevelDebug, s.handleMetrics))
	// Observability endpoints: the flight recorder (what happened, in what
	// order) and a bounded on-demand trace capture. Never shed, like the
	// other introspection routes.
	s.mux.HandleFunc("GET /debug/events", s.instrumented("debug_events", slog.LevelDebug, s.handleEvents))
	s.mux.HandleFunc("GET /debug/trace", s.instrumented("debug_trace", slog.LevelDebug, s.handleTraceCapture))
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// statusWriter captures the status code a handler wrote (200 if it never
// called WriteHeader explicitly before the first Write).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrumented wraps a handler with the observability envelope: a request id,
// a trace id (returned in X-Trace-Id and joined to every flight-recorder
// event the request causes), a per-request telemetry recorder (carried in
// the context, so every pipeline stage the request touches is attributed to
// it), a per-route latency histogram, and one structured log line. 5xx
// responses log at Warn regardless of the route's base level.
func (s *Server) instrumented(route string, lvl slog.Level, h http.HandlerFunc) http.HandlerFunc {
	hist := s.reg.Histogram("http_" + route + "_ms")
	span := "http_" + route
	return func(w http.ResponseWriter, r *http.Request) {
		id := s.reqID.Add(1)
		rec := telemetry.NewRecorder()
		trace := telemetry.NewTraceID()
		traceID := trace.String()
		w.Header().Set("X-Trace-Id", traceID)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r.WithContext(telemetry.WithRequest(r.Context(), rec, trace)))
		dur := time.Since(start)
		hist.Observe(dur)
		// The whole-request envelope span: one top-level slice per request
		// track in the exported trace (no-op unless a capture is running).
		telemetry.AddTraceSpan(span, trace, start, dur)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		level := lvl
		if sw.status >= 500 {
			level = slog.LevelWarn
		}
		if !s.log.Enabled(r.Context(), level) {
			return
		}
		attrs := [9]slog.Attr{
			slog.Int64("id", id),
			slog.String("trace", traceID),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Float64("durMs", float64(dur)/float64(time.Millisecond)),
		}
		n := 6
		if hits, misses := rec.Count(telemetry.StageCacheHit), rec.Count(telemetry.StageCacheMiss); hits+misses > 0 {
			attrs[n], attrs[n+1] = slog.Int64("cacheHits", hits), slog.Int64("cacheMisses", misses)
			n += 2
		}
		if stages := rec.Summary(); stages != "" {
			attrs[n] = slog.String("stages", stages)
			n++
		}
		s.log.LogAttrs(r.Context(), level, "request", attrs[:n]...)
	}
}

// Handler returns the root handler (also useful under httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// CacheStats exposes the snapshot-cache counters (tests, /v1/snapshots).
func (s *Server) CacheStats() snapcache.Stats { return s.cache.Stats() }

// retryAfter derives the Retry-After hint for shed (429) and breaker (503)
// responses from live pressure, not a constant: the base grows with query
// pool saturation, stretches to the breaker's remaining cooldown when the
// circuit is open (retrying sooner is provably pointless), and carries up
// to 50% random jitter so a synchronized client fleet doesn't thunder back
// in lockstep. floor is a caller-supplied lower bound (e.g. the cooldown
// from the specific BreakerOpenError being reported).
func (s *Server) retryAfter(floor time.Duration) time.Duration {
	load := float64(len(s.sem)) / float64(cap(s.sem))
	base := time.Duration((1 + load) * float64(time.Second))
	if br := s.cache.Breaker(); br.State != snapcache.BreakerClosed && br.RetryAfter > base {
		base = br.RetryAfter
	}
	if floor > base {
		base = floor
	}
	return base + time.Duration(rand.Int63n(int64(base)/2+1))
}

// retryAfterHeader renders a duration as the integral-seconds Retry-After
// header value, rounding up so the hint never undershoots.
func retryAfterHeader(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// limited wraps a query handler with admission control, the per-request
// deadline, and the error ladder: a handler returns its error before writing
// anything and fail turns it into the response. Shedding replies 429 with
// Retry-After so well-behaved clients back off.
func (s *Server) limited(h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		select {
		case s.sem <- struct{}{}:
		default:
			s.shed.Add(1)
			telemetry.EmitEvent(r.Context(), telemetry.CatServe, telemetry.SevWarn,
				"load shed: server at capacity",
				telemetry.Int64("maxInFlight", int64(cap(s.sem))))
			w.Header().Set("Retry-After", retryAfterHeader(s.retryAfter(0)))
			writeErrorTraced(w, http.StatusTooManyRequests,
				"server at capacity, retry later", telemetry.TraceIDFrom(r.Context()))
			return
		}
		s.inflight.Add(1)
		defer func() { s.inflight.Add(-1); <-s.sem }()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		if err := h(w, r); err != nil {
			s.fail(w, r, err)
		}
	}
}

// Serve accepts connections on ln until ctx is cancelled, then drains:
// in-flight requests run to completion (bounded by DrainTimeout) while new
// connections are refused. It returns nil after a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	if s.cfg.PrimeSnapshots {
		go s.primeCache(ctx)
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err // listener failed before shutdown was requested
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := hs.Shutdown(dctx)
	<-errc // always http.ErrServerClosed after Shutdown
	return err
}

// primeCache builds every snapshot of the schedule for both modes and
// deposits it into the cache; requests arriving mid-prime simply build (or
// singleflight-share) as usual, and whichever network lands first for a key
// is the one that stays.
// Runs until done or ctx is cancelled; a builder panic aborts priming with a
// log line, never the serve process.
func (s *Server) primeCache(ctx context.Context) {
	start := time.Now()
	primed, err := s.primeAll(ctx)
	if err != nil && ctx.Err() == nil {
		s.log.Warn("cache prime aborted", "primed", primed, "err", err)
		return
	}
	s.log.Info("cache primed", "snapshots", primed,
		"durMs", time.Since(start).Milliseconds())
}

// primeAll goes snapshot-major, bent-pipe first, so the base the sim derives
// hybrid(t) from is still resident: the day costs one scan per instant.
func (s *Server) primeAll(ctx context.Context) (primed int, err error) {
	defer safe.RecoverTo(&err)
	for _, t := range s.times {
		for _, mode := range []core.Mode{core.BP, core.Hybrid} {
			n, err := s.cfg.Sim.BuildNetworkAt(ctx, t, mode, nil)
			if err != nil {
				return primed, err
			}
			spec := snapSpec{t: t, mode: mode}
			// A request's build may have landed this spec first; the oracle
			// must describe the view that is resident, not ours.
			v := s.cache.Put(spec, &graph.View{N: n})
			primed++
			if s.cfg.PrimeOracles {
				// The oracle build rides the primer: once it lands, the
				// first query against this snapshot — single or batched —
				// skips both the graph build and the oracle build.
				if _, err := s.buildOracle(ctx, spec, v, true); err != nil {
					return primed, err
				}
			}
		}
	}
	return primed, nil
}
