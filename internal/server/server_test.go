package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"leosim/internal/core"
	"leosim/internal/geo"
)

// One shared sim for the whole package: constellation construction dominates
// test time and every test only reads it.
var (
	simOnce sync.Once
	testSim *core.Sim
	simErr  error
)

func serverSim(t *testing.T) *core.Sim {
	t.Helper()
	simOnce.Do(func() {
		scale := core.TinyScale()
		scale.NumSnapshots = 2
		testSim, simErr = core.NewSim(core.Starlink, scale)
	})
	if simErr != nil {
		t.Fatal(simErr)
	}
	return testSim
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Sim == nil {
		cfg.Sim = serverSim(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// q builds a correctly-escaped query URL: city names contain spaces and
// non-ASCII characters a raw string would not parse as.
func q(path string, kv ...string) string {
	v := url.Values{}
	for i := 0; i+1 < len(kv); i += 2 {
		v.Set(kv[i], kv[i+1])
	}
	return path + "?" + v.Encode()
}

func getJSON(t *testing.T, h http.Handler, url string, out interface{}) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s: bad JSON: %v\n%s", url, err, rec.Body.String())
		}
	}
	return rec
}

// The core acceptance criterion: a served /v1/path answer must match the
// batch pipeline's shortest path exactly, for both modes.
func TestPathMatchesBatchResults(t *testing.T) {
	sim := serverSim(t)
	s := newTestServer(t, Config{})
	for _, mode := range []core.Mode{core.BP, core.Hybrid} {
		n := sim.NetworkAt(geo.Epoch, mode)
		for _, pair := range sim.Pairs[:5] {
			url := q("/v1/path", "src", sim.CityName(pair.Src), "dst", sim.CityName(pair.Dst), "mode", mode.String())
			var resp pathResponse
			if rec := getJSON(t, s.Handler(), url, &resp); rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", url, rec.Code, rec.Body.String())
			}
			p, ok := n.ShortestPath(n.CityNode(pair.Src), n.CityNode(pair.Dst))
			if resp.Path.Reachable != ok {
				t.Fatalf("%s: served reachable=%v, batch %v", url, resp.Path.Reachable, ok)
			}
			if !ok {
				continue
			}
			if resp.Path.RTTMs != p.RTTMs() || resp.Path.Hops != p.Hops() {
				t.Fatalf("%s: served (rtt=%v hops=%d), batch (rtt=%v hops=%d)",
					url, resp.Path.RTTMs, resp.Path.Hops, p.RTTMs(), p.Hops())
			}
		}
	}
}

// The cache acceptance criterion: 100 concurrent requests for one
// (scenario, time, mask) key run exactly one snapshot build.
func TestSingleBuildUnder100ConcurrentRequests(t *testing.T) {
	sim := serverSim(t)
	s := newTestServer(t, Config{MaxInFlight: 128})
	url := q("/v1/path", "src", sim.CityName(sim.Pairs[0].Src), "dst", sim.CityName(sim.Pairs[0].Dst))

	const N = 100
	var wg sync.WaitGroup
	codes := make([]int, N)
	for i := 0; i < N; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
			codes[i] = rec.Code
		}()
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d: status %d", i, c)
		}
	}
	st := s.CacheStats()
	if st.Builds != 1 {
		t.Fatalf("%d concurrent requests ran %d builds, want 1", N, st.Builds)
	}
	if st.Hits+st.Misses != N {
		t.Fatalf("cache saw %d gets, want %d", st.Hits+st.Misses, N)
	}
}

// Distinct fault masks are distinct cache keys: the masked build must not be
// served for the healthy key or vice versa, and the mask is echoed back.
func TestFaultMaskKeysSeparateBuilds(t *testing.T) {
	s := newTestServer(t, Config{})
	sim := serverSim(t)
	src, dst := sim.CityName(sim.Pairs[0].Src), sim.CityName(sim.Pairs[0].Dst)
	base := q("/v1/path", "src", src, "dst", dst, "mode", "hybrid")
	faulted0 := q("/v1/path", "src", src, "dst", dst, "mode", "hybrid",
		"fault", "sat", "fraction", "0.5", "fault-seed", "3")

	var healthy, faulted pathResponse
	if rec := getJSON(t, s.Handler(), base, &healthy); rec.Code != http.StatusOK {
		t.Fatalf("healthy: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec := getJSON(t, s.Handler(), faulted0, &faulted); rec.Code != http.StatusOK {
		t.Fatalf("faulted: status %d: %s", rec.Code, rec.Body.String())
	}
	if faulted.Fault != "sat:0.5:3" {
		t.Fatalf("fault fingerprint = %q, want sat:0.5:3", faulted.Fault)
	}
	if s.CacheStats().Builds != 2 {
		t.Fatalf("healthy + faulted ran %d builds, want 2", s.CacheStats().Builds)
	}
	// Same faulted query again: cache hit, no third build.
	if rec := getJSON(t, s.Handler(), faulted0, nil); rec.Code != http.StatusOK {
		t.Fatalf("faulted repeat: status %d", rec.Code)
	}
	if s.CacheStats().Builds != 2 {
		t.Fatalf("repeat query rebuilt: %d builds", s.CacheStats().Builds)
	}
}

func TestParamValidation(t *testing.T) {
	sim := serverSim(t)
	s := newTestServer(t, Config{})
	src, dst := sim.CityName(sim.Pairs[0].Src), sim.CityName(sim.Pairs[0].Dst)
	cases := []struct {
		url  string
		want int
	}{
		{q("/v1/path", "dst", dst), http.StatusBadRequest},
		{q("/v1/path", "src", "Atlantis", "dst", dst), http.StatusNotFound},
		{q("/v1/path", "src", src, "dst", dst, "mode", "warp"), http.StatusBadRequest},
		{q("/v1/path", "src", src, "dst", dst, "t", "yesterday"), http.StatusBadRequest},
		{q("/v1/path", "src", src, "dst", dst, "snap", "99"), http.StatusBadRequest},
		{q("/v1/path", "src", src, "dst", dst, "fault", "meteor"), http.StatusBadRequest},
		{q("/v1/path", "src", src, "dst", dst, "fraction", "0.5"), http.StatusBadRequest},
		{q("/v1/path", "src", src, "dst", dst, "fault", "sat", "fraction", "2"), http.StatusBadRequest},
		{q("/v1/path", "src", src, "dst", dst, "snap", "1"), http.StatusOK},
		{q("/v1/path", "src", src, "dst", dst, "t", "2h"), http.StatusOK},
		{q("/v1/reachability"), http.StatusOK},
		{q("/v1/reachability", "src", src), http.StatusOK},
		{q("/v1/reachability", "src", "Atlantis"), http.StatusNotFound},
	}
	for _, c := range cases {
		if rec := getJSON(t, s.Handler(), c.url, nil); rec.Code != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.url, rec.Code, c.want, rec.Body.String())
		}
	}
}

func TestIntrospectionEndpoints(t *testing.T) {
	sim := serverSim(t)
	s := newTestServer(t, Config{})

	var snaps struct {
		Times []time.Time    `json:"times"`
		Cache cacheStatsJSON `json:"cache"`
	}
	if rec := getJSON(t, s.Handler(), "/v1/snapshots", &snaps); rec.Code != http.StatusOK {
		t.Fatalf("/v1/snapshots: status %d", rec.Code)
	}
	if len(snaps.Times) != sim.Scale.NumSnapshots {
		t.Fatalf("/v1/snapshots lists %d times, want %d", len(snaps.Times), sim.Scale.NumSnapshots)
	}

	var health struct {
		Status  string `json:"status"`
		Version struct {
			Version   string `json:"version"`
			GoVersion string `json:"goVersion"`
		} `json:"version"`
	}
	if rec := getJSON(t, s.Handler(), "/healthz", &health); rec.Code != http.StatusOK {
		t.Fatalf("/healthz: status %d", rec.Code)
	}
	if health.Status != "ok" || health.Version.Version == "" || health.Version.GoVersion == "" {
		t.Fatalf("/healthz = %+v", health)
	}

	// /metrics must be one valid JSON object holding the server registry.
	var metrics struct {
		Server struct {
			Counters map[string]int64 `json:"counters"`
			Gauges   map[string]int64 `json:"gauges"`
		} `json:"server"`
		Runtime struct {
			Goroutines int64 `json:"goroutines"`
		} `json:"runtime"`
	}
	if rec := getJSON(t, s.Handler(), "/metrics", &metrics); rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	if _, ok := metrics.Server.Counters["requests"]; !ok {
		t.Fatalf("/metrics server block lacks request counter: %v", metrics.Server.Counters)
	}
	if _, ok := metrics.Server.Gauges["cache_hits"]; !ok {
		t.Fatalf("/metrics server block lacks cache gauges: %v", metrics.Server.Gauges)
	}
	if metrics.Runtime.Goroutines <= 0 {
		t.Fatalf("/metrics runtime block reports %d goroutines", metrics.Runtime.Goroutines)
	}
}

// latencyGate parks /v1/latency requests inside the handler so lifecycle
// tests can hold them in-flight deterministically. Entered is signalled once
// per snapshot iteration; Close releases all current and future holds.
type latencyGate struct {
	entered chan struct{}
	release chan struct{}
}

func installGate(t *testing.T) *latencyGate {
	t.Helper()
	g := &latencyGate{entered: make(chan struct{}, 64), release: make(chan struct{})}
	testHookLatencySnapshot = func() {
		g.entered <- struct{}{}
		<-g.release
	}
	t.Cleanup(func() { testHookLatencySnapshot = nil })
	return g
}

func (g *latencyGate) waitEntered(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("request never reached the latency hook")
	}
}

// At MaxInFlight=1, a second query must be shed with 429 + Retry-After while
// the first is in flight — and admitted again once capacity frees up.
func TestSheddingAtCapacity(t *testing.T) {
	sim := serverSim(t)
	s := newTestServer(t, Config{MaxInFlight: 1})
	gate := installGate(t)
	url := q("/v1/latency", "src", sim.CityName(sim.Pairs[0].Src), "dst", sim.CityName(sim.Pairs[0].Dst))

	done := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		done <- rec.Code
	}()
	gate.waitEntered(t)

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 response lacks Retry-After")
	}
	if s.shed.Value() != 1 {
		t.Fatalf("shed counter = %d, want 1", s.shed.Value())
	}
	// /healthz must answer even while the query pool is saturated.
	if rec := getJSON(t, s.Handler(), "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("/healthz while saturated: status %d", rec.Code)
	}

	close(gate.release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("held request: status %d, want 200", code)
	}
	// Capacity is back: the same query is admitted now.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-drain request: status %d, want 200", rec.Code)
	}
}

// A client that disconnects mid-scan must be answered with the 499 path:
// the handler observes the cancelled context and stops between snapshots.
func TestClientCancellationStopsScan(t *testing.T) {
	sim := serverSim(t)
	s := newTestServer(t, Config{})
	gate := installGate(t)
	url := q("/v1/latency", "src", sim.CityName(sim.Pairs[0].Src), "dst", sim.CityName(sim.Pairs[0].Dst))

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", url, nil).WithContext(ctx)
		s.Handler().ServeHTTP(rec, req)
	}()
	gate.waitEntered(t)
	cancel() // client goes away while the request is parked in-flight
	close(gate.release)
	<-done
	if got := s.cancelled.Value(); got != 1 {
		t.Fatalf("cancelled counter = %d, want 1", got)
	}
}

// Graceful drain: cancelling the serve context must let an in-flight request
// finish with 200 while new connections are refused, and Serve returns nil.
func TestGracefulDrain(t *testing.T) {
	sim := serverSim(t)
	s := newTestServer(t, Config{DrainTimeout: 20 * time.Second})
	gate := installGate(t)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String() + q("/v1/latency",
		"src", sim.CityName(sim.Pairs[0].Src), "dst", sim.CityName(sim.Pairs[0].Dst))
	type result struct {
		code int
		err  error
	}
	reqDone := make(chan result, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			reqDone <- result{err: err}
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		reqDone <- result{code: resp.StatusCode}
	}()
	gate.waitEntered(t)

	stop() // SIGTERM equivalent: drain begins with one request in flight
	close(gate.release)

	res := <-reqDone
	if res.err != nil || res.code != http.StatusOK {
		t.Fatalf("in-flight request during drain: %+v, want 200", res)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v after clean drain, want nil", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	// The listener is closed: new connections must fail.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting connections after drain")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without a Sim must error")
	}
	// Oracle priming rides the snapshot primer; asking for it alone used to
	// be silently ignored.
	if _, err := New(Config{Sim: serverSim(t), PrimeOracles: true}); err == nil {
		t.Fatal("New with PrimeOracles but without PrimeSnapshots must error")
	}
	s := newTestServer(t, Config{})
	if s.cfg.MaxInFlight <= 0 || s.cfg.RequestTimeout <= 0 || s.cfg.DrainTimeout <= 0 || s.cfg.CacheSize <= 0 {
		t.Fatalf("defaults not filled: %+v", s.cfg)
	}
}

// The observability acceptance criterion, end to end: after real queries,
// /metrics must expose the snapshot-cache counters as registry gauges
// (including singleflight shares) and per-stage latency histograms with
// plausible quantiles for at least graph build, search and cache lookups.
func TestMetricsExposeCacheAndStageHistograms(t *testing.T) {
	sim := serverSim(t)
	s := newTestServer(t, Config{})
	url := q("/v1/path", "src", sim.CityName(sim.Pairs[0].Src), "dst", sim.CityName(sim.Pairs[0].Dst))
	for i := 0; i < 3; i++ { // 1 miss+build, then hits
		if rec := getJSON(t, s.Handler(), url, nil); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", url, rec.Code)
		}
	}

	var metrics struct {
		Server struct {
			Gauges     map[string]int64 `json:"gauges"`
			Histograms map[string]struct {
				Count int64 `json:"count"`
			} `json:"histograms"`
		} `json:"server"`
		Stages map[string]struct {
			Count int64   `json:"count"`
			P50Ms float64 `json:"p50Ms"`
			P99Ms float64 `json:"p99Ms"`
		} `json:"stages"`
	}
	if rec := getJSON(t, s.Handler(), "/metrics", &metrics); rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}

	g := metrics.Server.Gauges
	if g["cache_hits"] < 2 || g["cache_builds"] < 1 {
		t.Errorf("cache gauges: hits=%d builds=%d, want ≥2 hits and ≥1 build", g["cache_hits"], g["cache_builds"])
	}
	if shares, ok := g["cache_singleflight_shares"]; !ok || shares < 0 {
		t.Errorf("cache_singleflight_shares = %d, ok=%v", shares, ok)
	}
	if g["cache_resident"] < 1 {
		t.Errorf("cache_resident = %d, want ≥ 1", g["cache_resident"])
	}
	if h, ok := metrics.Server.Histograms["http_path_ms"]; !ok || h.Count < 3 {
		t.Errorf("http_path_ms histogram = %+v, want count ≥ 3", h)
	}
	// The stage histograms are process-global, so counts include other
	// tests' work — assert presence and sane quantiles, not exact counts.
	for _, stage := range []string{"graph_build", "search", "cache_hit", "cache_miss"} {
		st, ok := metrics.Stages[stage]
		if !ok || st.Count < 1 {
			t.Errorf("stage %q missing from /metrics (got %v)", stage, metrics.Stages)
			continue
		}
		if st.P50Ms < 0 || st.P99Ms < st.P50Ms {
			t.Errorf("stage %q quantiles implausible: %+v", stage, st)
		}
	}
}

// Every request must produce one structured log line carrying the request
// id, route, status, duration and the cache outcome.
func TestRequestLogging(t *testing.T) {
	sim := serverSim(t)
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	s := newTestServer(t, Config{Logger: logger})
	url := q("/v1/path", "src", sim.CityName(sim.Pairs[0].Src), "dst", sim.CityName(sim.Pairs[0].Dst))
	if rec := getJSON(t, s.Handler(), url, nil); rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d", url, rec.Code)
	}

	var line struct {
		Msg    string  `json:"msg"`
		ID     int64   `json:"id"`
		Method string  `json:"method"`
		Path   string  `json:"path"`
		Status int     `json:"status"`
		DurMs  float64 `json:"durMs"`
		Stages string  `json:"stages"`
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("request log is not one JSON line: %v\n%s", err, buf.String())
	}
	if line.Msg != "request" || line.ID < 1 || line.Method != "GET" ||
		line.Path != "/v1/path" || line.Status != http.StatusOK || line.DurMs < 0 {
		t.Fatalf("request log line incomplete: %+v", line)
	}
	if line.Stages == "" || !strings.Contains(line.Stages, "cache_miss") {
		t.Errorf("request log lacks stage breakdown: %q", line.Stages)
	}

	// Introspection endpoints log at debug — silent at the info level.
	buf.Reset()
	getJSON(t, s.Handler(), "/healthz", nil)
	if buf.Len() != 0 {
		t.Errorf("healthz logged at info level: %s", buf.String())
	}
}

// TestPrimeCacheWarmsWholeDay checks the background primer: every snapshot of
// both modes lands in the cache, byte-identical to a cold build, and
// subsequent requests are pure cache hits.
func TestPrimeCacheWarmsWholeDay(t *testing.T) {
	s := newTestServer(t, Config{PrimeSnapshots: true})
	primed, err := s.primeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(s.times); primed != want {
		t.Fatalf("primed %d snapshots, want %d (both modes × schedule)", primed, want)
	}
	if got := s.CacheStats().Primed; got != int64(primed) {
		t.Fatalf("Primed counter %d, want %d", got, primed)
	}
	for _, mode := range []core.Mode{core.BP, core.Hybrid} {
		for _, ts := range s.times {
			v, ok := s.cache.GetCached(s.cacheKey(snapSpec{t: ts, mode: mode}))
			if !ok {
				t.Fatalf("%s@%v not resident after prime", mode, ts)
			}
			want, err := s.cfg.Sim.BuildNetworkAt(context.Background(), ts, mode, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(v.N.Links) != len(want.Links) || v.Cut != nil {
				t.Fatalf("%s@%v: primed snapshot has %d links and a cut of %d, cold build %d links",
					mode, ts, len(v.N.Links), len(v.Cut), len(want.Links))
			}
		}
	}
	// A served query now finds its snapshot warm: hits move, builds don't.
	base := s.CacheStats()
	rec := getJSON(t, s.Handler(), q("/v1/path", "src", s.cfg.Sim.CityName(0), "dst", s.cfg.Sim.CityName(1)), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("path after prime: %d\n%s", rec.Code, rec.Body.String())
	}
	st := s.CacheStats()
	if st.Builds != base.Builds || st.Hits <= base.Hits {
		t.Fatalf("query after prime built (%d→%d builds, %d→%d hits), want pure hit",
			base.Builds, st.Builds, base.Hits, st.Hits)
	}
}

// TestPrimeCancelled checks a cancelled prime stops early and reports how far
// it got instead of hanging the serve goroutine.
func TestPrimeCancelled(t *testing.T) {
	s := newTestServer(t, Config{PrimeSnapshots: true})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	primed, err := s.primeAll(ctx)
	if err != context.Canceled || primed != 0 {
		t.Fatalf("cancelled prime: primed=%d err=%v", primed, err)
	}
}

// TestPrimeDefaultCacheSizing checks the default cache grows to hold both
// modes' full day when priming is enabled.
func TestPrimeDefaultCacheSizing(t *testing.T) {
	sim := serverSim(t)
	plain, err := New(Config{Sim: sim})
	if err != nil {
		t.Fatal(err)
	}
	primedSrv, err := New(Config{Sim: sim, PrimeSnapshots: true})
	if err != nil {
		t.Fatal(err)
	}
	if primedSrv.cfg.CacheSize < 2*sim.Scale.NumSnapshots ||
		primedSrv.cfg.CacheSize < plain.cfg.CacheSize {
		t.Fatalf("primed cache size %d vs plain %d for %d snapshots",
			primedSrv.cfg.CacheSize, plain.cfg.CacheSize, sim.Scale.NumSnapshots)
	}
}
