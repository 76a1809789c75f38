package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leosim/internal/core"
	"leosim/internal/fault"
	"leosim/internal/graph"
	"leosim/internal/telemetry"
)

// chaosURL builds the /v1/path query for one (snapshot, mode) cache key.
func chaosURL(t *testing.T, s *Server, snap int, mode string) string {
	t.Helper()
	sim := serverSim(t)
	return q("/v1/path",
		"src", sim.CityName(sim.Pairs[0].Src), "dst", sim.CityName(sim.Pairs[0].Dst),
		"snap", strconv.Itoa(snap), "mode", mode)
}

// get runs one request and returns the recorder.
func get(s *Server, url string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec
}

// primeKeys asks for every (snapshot, mode) key of the test sim through
// request, retrying through injected failures until each is resident, and
// returns their URLs.
func primeKeys(t *testing.T, s *Server, request func(url string) int) []string {
	t.Helper()
	urls := make([]string, 0, 4)
	for snap := 0; snap < 2; snap++ {
		for _, mode := range []string{"bp", "hybrid"} {
			url := chaosURL(t, s, snap, mode)
			urls = append(urls, url)
			primed := false
			for try := 0; try < 50 && !primed; try++ {
				if primed = request(url) == http.StatusOK; !primed {
					time.Sleep(10 * time.Millisecond) // breaker cooldown headroom
				}
			}
			if !primed {
				t.Fatalf("key %s not primed after 50 attempts", url)
			}
		}
	}
	return urls
}

// stormURL is request i of a chaos storm: half go to the resident keys, the
// other half each need a build of their own — a what-if under a fault seed
// no other request uses, or an instant off the snapshot schedule — so builds,
// and the failures injected into them, keep going for the whole storm.
func stormURL(t *testing.T, s *Server, resident []string, i int) (url string, isResident bool) {
	switch i % 4 {
	case 0, 1:
		return resident[i%len(resident)], true
	case 2:
		return resident[i%len(resident)] + "&fault=sat&fraction=0.05&fault-seed=" + strconv.Itoa(1000+i), false
	}
	sim := serverSim(t)
	return q("/v1/path",
		"src", sim.CityName(sim.Pairs[0].Src), "dst", sim.CityName(sim.Pairs[0].Dst),
		"t", strconv.Itoa(1+i)+"m", "mode", []string{"bp", "hybrid"}[i/4%2]), false
}

// The chaos acceptance criterion: with seeded injection failing (or
// panicking) over a third of snapshot builds, a client retrying up to four
// times must be answered ≥95% of the time — and a key resident before the
// storm never sees a non-200, because a resident snapshot is final: nothing
// rebuilds it, so no injected failure can reach it. The storm mixes those keys
// with requests that each need a build, so injections keep landing beside
// them. The injector is seeded, so the fault stream is reproducible; the
// assertions hold for any goroutine interleaving, so the test is
// deterministic under -race as well.
func TestChaosStormServesResidentKeysWithoutErrors(t *testing.T) {
	chaos := fault.NewChaos(42, 0.30, 0.05, 0)
	s := newTestServer(t, Config{
		CacheSize:       512, // every key of the storm stays resident
		BreakerCooldown: 50 * time.Millisecond,
		Chaos:           chaos,
		MaxInFlight:     64,
	})
	urls := primeKeys(t, s, func(url string) int { return get(s, url).Code })
	primeFails := chaos.Fails()

	const workers, perWorker, tries = 8, 25, 4
	var non200, unanswered atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				url, resident := stormURL(t, s, urls, w*perWorker+i)
				answered := false
				for try := 0; try < tries && !answered; try++ {
					rec := get(s, url)
					switch answered = rec.Code == http.StatusOK; {
					case !answered && resident:
						non200.Add(1)
						t.Errorf("resident key: status %d: %s", rec.Code, rec.Body.String())
					case !answered:
						time.Sleep(time.Duration(20<<try) * time.Millisecond) // back off past the breaker cooldown
					}
				}
				if !answered {
					unanswered.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	if non200.Load() != 0 {
		t.Fatalf("%d non-200 responses for keys resident before the storm, want 0", non200.Load())
	}
	total := int64(workers * perWorker)
	rate := float64(total-unanswered.Load()) / float64(total)
	if rate < 0.95 {
		t.Fatalf("answered %.3f of %d requests within %d tries, want ≥ 0.95", rate, total, tries)
	}
	// The storm itself must have been chaotic.
	stormFails := chaos.Fails() - primeFails
	if stormFails == 0 {
		t.Fatal("chaos injected no failures during the storm — it proved nothing")
	}
	t.Logf("chaos storm: %d requests, %.3f answered within %d tries, %d injected failures in the storm (%d while priming), %d panics",
		total, rate, tries, stormFails, primeFails, chaos.Panics())
}

// The chaos suite must self-explain: with 30% injected build failures,
// every single injection appears in /debug/events as a chaos event whose
// trace ID joins the request that triggered the build — and that request's
// own outcome (a 5xx or a degraded fallback) is the response that absorbed
// it; conversely, every 5xx or degraded response joins an injection. An
// operator holding one X-Trace-Id from a bad response can pull the exact
// injected fault that caused it, and vice versa.
func TestChaosSelfExplainsInFlightRecorder(t *testing.T) {
	chaos := fault.NewChaos(99, 0.30, 0.05, 0)
	s := newTestServer(t, Config{
		CacheSize:        512,
		BreakerThreshold: -1, // isolate the event join from breaker 503s
		Chaos:            chaos,
		MaxInFlight:      64,
	})
	// Scope to this storm. The cursor must be read after New, which enables
	// process-global telemetry (and with it the flight recorder) if needed.
	since := telemetry.LastEventSeq()

	// outcome is what one request experienced, keyed by its X-Trace-Id.
	type outcome struct {
		status   int
		degraded bool
	}
	var mu sync.Mutex
	outcomes := map[string]outcome{}
	request := func(url string) int {
		rec := get(s, url)
		var body struct {
			Degraded string `json:"degraded"`
		}
		json.Unmarshal(rec.Body.Bytes(), &body) //nolint:errcheck // error bodies lack the field
		mu.Lock()
		outcomes[rec.Header().Get("X-Trace-Id")] = outcome{status: rec.Code, degraded: body.Degraded != ""}
		mu.Unlock()
		return rec.Code
	}

	// Prime each key through the injected failures, then storm the resident
	// keys beside requests that each need a build.
	urls := primeKeys(t, s, request)
	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				url, _ := stormURL(t, s, urls, w*perWorker+i)
				request(url)
			}
		}()
	}
	wg.Wait()

	// Every build was some request's own, so its events landed before that
	// request answered. The registry is process-global, though, so a
	// straggler build from an earlier test can land a foreign chaos event in
	// the ring — scope the join to events whose trace belongs to this storm's
	// requests. The scoping costs nothing: an injection of OURS that lost its
	// trace would drop out of the joined set and fail the exact count below.
	injected := chaos.Fails() + chaos.Panics()
	var evs []telemetry.Event
	injectedTraces := map[string]bool{}
	for _, e := range telemetry.Events(telemetry.EventFilter{Cat: telemetry.CatChaos, Since: since}) {
		if _, ok := outcomes[e.Trace.String()]; ok {
			evs = append(evs, e)
			injectedTraces[e.Trace.String()] = true
		}
	}
	if int64(len(evs)) != injected {
		t.Fatalf("flight recorder joins %d chaos events to this storm's requests, injector reports %d (fails=%d panics=%d)",
			len(evs), injected, chaos.Fails(), chaos.Panics())
	}
	if injected == 0 {
		t.Fatal("chaos injected nothing — the join proved nothing")
	}

	// Every injection joins a request, and that request's response absorbed
	// the failure: a 5xx or a degraded fallback. (A clean 200 would mean a
	// failed build silently produced an answer — the one impossible outcome.)
	for _, e := range evs {
		if oc := outcomes[e.Trace.String()]; oc.status < 500 && !oc.degraded {
			t.Errorf("chaos event %d trace %s joined a clean %d", e.Seq, e.Trace, oc.status)
		}
	}
	// And the other way: every 5xx or degraded response joins an injection,
	// which also surfaced as a build-failure event under the same trace.
	failedTraces := map[string]bool{}
	for _, e := range telemetry.Events(telemetry.EventFilter{Cat: telemetry.CatBuild, MinSev: telemetry.SevError, Since: since}) {
		failedTraces[e.Trace.String()] = true
	}
	var bad int
	for trace, oc := range outcomes {
		if oc.status < 500 && !oc.degraded {
			continue
		}
		bad++
		if !injectedTraces[trace] || !failedTraces[trace] {
			t.Errorf("response trace %s (status %d, degraded %v) joins no injected build failure", trace, oc.status, oc.degraded)
		}
	}
	t.Logf("joined %d injected faults (%d fails, %d panics) to %d failed or degraded responses across %d requests",
		injected, chaos.Fails(), chaos.Panics(), bad, len(outcomes))
}

// With every build failing, the breaker must trip after the configured
// streak and convert further misses from 500s into fast 503s that carry a
// cooldown-derived Retry-After.
func TestChaosBreakerOpensEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{
		Chaos:            fault.NewChaos(7, 1.0, 0, 0),
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour,
	})
	url := chaosURL(t, s, 0, "bp")

	for i := 0; i < 3; i++ {
		if rec := get(s, url); rec.Code != http.StatusInternalServerError {
			t.Fatalf("build %d: status %d, want 500 while the breaker is closed", i, rec.Code)
		}
	}
	rec := get(s, url)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-trip request: status %d, want 503", rec.Code)
	}
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || ra < 3600 {
		t.Fatalf("Retry-After = %q, want ≥ 3600s (the 1h cooldown)", rec.Header().Get("Retry-After"))
	}

	var metrics struct {
		Server struct {
			Counters map[string]int64 `json:"counters"`
			Gauges   map[string]int64 `json:"gauges"`
		} `json:"server"`
		Breaker breakerJSON `json:"breaker"`
	}
	if rec := getJSON(t, s.Handler(), "/metrics", &metrics); rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	if metrics.Breaker.State != "open" || metrics.Breaker.FailureStreak < 3 || metrics.Breaker.Opens != 1 {
		t.Errorf("breaker block = %+v, want open with streak ≥ 3 and 1 open", metrics.Breaker)
	}
	if metrics.Server.Counters["breakerRejects"] < 1 {
		t.Errorf("breakerRejects counter = %d, want ≥ 1", metrics.Server.Counters["breakerRejects"])
	}
	if metrics.Server.Gauges["breaker_state"] != 2 || metrics.Server.Gauges["build_failure_streak"] < 3 {
		t.Errorf("breaker gauges = state %d streak %d, want state 2 (open), streak ≥ 3",
			metrics.Server.Gauges["breaker_state"], metrics.Server.Gauges["build_failure_streak"])
	}
}

// A hybrid-mode build failure with a resident BP snapshot for the same
// instant degrades to the BP copy (200 + degraded marker) instead of a 500.
// Seed 10 at FailRate 0.5 draws ok, fail, ok — so the BP prime succeeds, the
// first hybrid build fails, and the hybrid retry heals.
func TestChaosHybridDegradesToBPFallback(t *testing.T) {
	s := newTestServer(t, Config{
		Chaos:            fault.NewChaos(10, 0.5, 0, 0),
		BreakerThreshold: -1, // isolate the fallback ladder from breaker effects
	})

	if rec := get(s, chaosURL(t, s, 0, "bp")); rec.Code != http.StatusOK {
		t.Fatalf("BP prime: status %d: %s", rec.Code, rec.Body.String())
	}
	var resp pathResponse
	rec := getJSON(t, s.Handler(), chaosURL(t, s, 0, "hybrid"), &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("hybrid with failed build: status %d, want 200 via BP fallback: %s", rec.Code, rec.Body.String())
	}
	if resp.Degraded != "bp-fallback" {
		t.Fatalf("degraded = %q, want bp-fallback", resp.Degraded)
	}
	if !resp.Path.Reachable {
		t.Fatal("degraded response lacks a usable path")
	}
	if got := s.degraded.Value(); got != 1 {
		t.Errorf("degradedResponses = %d, want 1", got)
	}

	// The third draw succeeds: the hybrid key heals and serves undegraded.
	resp = pathResponse{}
	if rec := getJSON(t, s.Handler(), chaosURL(t, s, 0, "hybrid"), &resp); rec.Code != http.StatusOK {
		t.Fatalf("hybrid retry: status %d", rec.Code)
	}
	if resp.Degraded != "" {
		t.Errorf("healed response still degraded: %q", resp.Degraded)
	}
}

// The same-key rung: a request's build fails while another writer — here the
// primer's Put, landing from inside the failing build — makes the key
// resident. The request is answered from that snapshot, marked
// "stale-cache", instead of a 500.
func TestStaleCacheServesKeyLandedDuringFailedBuild(t *testing.T) {
	chaos := fault.NewChaos(7, 1.0, 0, time.Nanosecond)
	s := newTestServer(t, Config{Chaos: chaos, BreakerThreshold: -1})
	key := s.cacheKey(snapSpec{t: s.times[0], mode: core.BP})
	landed, err := s.cfg.Sim.BuildNetworkAt(context.Background(), key.Time, core.BP, nil)
	if err != nil {
		t.Fatal(err)
	}
	chaos.Sleep = func(time.Duration) { s.cache.Put(key, &graph.View{N: landed}) }
	var resp pathResponse
	if rec := getJSON(t, s.Handler(), chaosURL(t, s, 0, "bp"), &resp); rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 from the landed snapshot: %s", rec.Code, rec.Body.String())
	}
	if resp.Degraded != "stale-cache" || !resp.Path.Reachable {
		t.Fatalf("degraded = %q, reachable = %v; want a stale-cache answer", resp.Degraded, resp.Path.Reachable)
	}
	if chaos.Fails() != 1 || s.degraded.Value() != 1 {
		t.Errorf("%d injected failures, %d degraded responses; want 1 each", chaos.Fails(), s.degraded.Value())
	}
}

// A what-if can be the breaker's half-open probe. Its build reads the healthy
// entry through the same cache, which starts no second build while a probe is
// in flight — so with that entry not resident the probe must take the sim's
// network instead of failing, or a server asked only what-ifs would never
// close its breaker.
func TestMaskedProbeClosesBreaker(t *testing.T) {
	chaos := fault.NewChaos(7, 1.0, 0, 0)
	s := newTestServer(t, Config{
		Chaos:            chaos,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Millisecond,
	})
	if rec := get(s, chaosURL(t, s, 0, "bp")); rec.Code != http.StatusInternalServerError {
		t.Fatalf("tripping build: status %d, want 500", rec.Code)
	}
	if st := s.cache.Breaker().State; st.String() != "open" {
		t.Fatalf("breaker %s after the failed build, want open", st)
	}
	chaos.FailRate = 0
	time.Sleep(5 * time.Millisecond) // past the cooldown
	url := chaosURL(t, s, 1, "hybrid") + "&fault=sat&fraction=0.1"
	if rec := get(s, url); rec.Code != http.StatusOK {
		t.Fatalf("masked probe with no resident healthy entry: status %d: %s", rec.Code, rec.Body.String())
	}
	if st := s.cache.Breaker().State; st.String() != "closed" {
		t.Fatalf("breaker %s after the successful probe, want closed", st)
	}
}

// Retry-After is load- and breaker-derived with jitter — never the old
// hardcoded 1. On an idle server the base is 1s, jitter adds up to 50%.
func TestRetryAfterLoadDerivedAndJittered(t *testing.T) {
	s := newTestServer(t, Config{})
	seen := map[time.Duration]bool{}
	for i := 0; i < 100; i++ {
		d := s.retryAfter(0)
		if d < time.Second || d > 1500*time.Millisecond {
			t.Fatalf("retryAfter = %v, want within [1s, 1.5s] on an idle server", d)
		}
		seen[d] = true
	}
	if len(seen) < 2 {
		t.Error("retryAfter returned one constant value across 100 draws — jitter missing")
	}
	// A floor (e.g. the breaker's cooldown hint) raises the base.
	if d := s.retryAfter(10 * time.Second); d < 10*time.Second || d > 15*time.Second {
		t.Errorf("floored retryAfter = %v, want within [10s, 15s]", d)
	}
	for _, c := range []struct {
		d    time.Duration
		want string
	}{{0, "1"}, {time.Second, "1"}, {1400 * time.Millisecond, "2"}, {3 * time.Second, "3"}} {
		if got := retryAfterHeader(c.d); got != c.want {
			t.Errorf("retryAfterHeader(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}
