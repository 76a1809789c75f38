package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"leosim/internal/core"
	"leosim/internal/fault"
	"leosim/internal/telemetry"
)

func itoa(n uint64) string { return strconv.FormatUint(n, 10) }

// eventsView decodes the /debug/events payload on the client side (the
// telemetry.Event marshaller is one-way).
type eventsView struct {
	LastSeq uint64 `json:"lastSeq"`
	Events  []struct {
		Seq      uint64                 `json:"seq"`
		Category string                 `json:"category"`
		Severity string                 `json:"severity"`
		Trace    string                 `json:"trace"`
		Msg      string                 `json:"msg"`
		Attrs    map[string]interface{} `json:"attrs"`
	} `json:"events"`
}

// Every response carries an X-Trace-Id header, and error bodies echo it as
// traceId — the join key into /debug/events.
func TestResponsesCarryTraceID(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	s := newTestServer(t, Config{})

	rec := get(s, q("/v1/path", "src", "nowhere", "dst", "nowhere"))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", rec.Code)
	}
	header := rec.Header().Get("X-Trace-Id")
	if len(header) != 16 {
		t.Fatalf("X-Trace-Id = %q, want 16 hex digits", header)
	}
	var body struct {
		TraceID string `json:"traceId"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.TraceID != header {
		t.Errorf("body traceId %q != header %q", body.TraceID, header)
	}
}

// /debug/events serves the flight recorder with working since/category/
// severity/limit filters and rejects malformed ones.
func TestDebugEventsFilters(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	s := newTestServer(t, Config{
		Chaos: fault.NewChaos(7, 1.0, 0, 0), // every build fails
	})

	var before eventsView
	if rec := getJSON(t, s.Handler(), "/debug/events", &before); rec.Code != http.StatusOK {
		t.Fatalf("/debug/events: status %d", rec.Code)
	}
	if rec := get(s, chaosURL(t, s, 0, "bp")); rec.Code != http.StatusInternalServerError {
		t.Fatalf("chaos request: status %d, want 500", rec.Code)
	}

	var all eventsView
	getJSON(t, s.Handler(), q("/debug/events", "since", itoa(before.LastSeq)), &all)
	if len(all.Events) == 0 || all.LastSeq <= before.LastSeq {
		t.Fatalf("no new events after a failed build: %+v", all)
	}
	var sawBuildFail, sawInternal bool
	for _, e := range all.Events {
		if e.Seq <= before.LastSeq {
			t.Errorf("since filter leaked seq %d (cursor %d)", e.Seq, before.LastSeq)
		}
		switch {
		case e.Category == "build" && e.Msg == "build failed":
			sawBuildFail = true
		case e.Category == "serve" && e.Msg == "internal error":
			sawInternal = true
		}
	}
	if !sawBuildFail || !sawInternal {
		t.Errorf("missing build-failed (%v) or internal-error (%v) events: %+v",
			sawBuildFail, sawInternal, all.Events)
	}

	var errsOnly eventsView
	getJSON(t, s.Handler(), q("/debug/events", "since", itoa(before.LastSeq), "severity", "error"), &errsOnly)
	if len(errsOnly.Events) == 0 {
		t.Fatal("severity=error returned nothing")
	}
	for _, e := range errsOnly.Events {
		if e.Severity != "error" {
			t.Errorf("severity filter leaked %q", e.Severity)
		}
	}
	var buildOnly eventsView
	getJSON(t, s.Handler(), q("/debug/events", "since", itoa(before.LastSeq), "category", "build", "limit", "1"), &buildOnly)
	if len(buildOnly.Events) != 1 || buildOnly.Events[0].Category != "build" {
		t.Errorf("category+limit filter: %+v", buildOnly.Events)
	}

	for _, bad := range []string{
		q("/debug/events", "since", "not-a-number"),
		q("/debug/events", "category", "bogus"),
		q("/debug/events", "severity", "fatal"),
		q("/debug/events", "limit", "-3"),
	} {
		if rec := get(s, bad); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, rec.Code)
		}
	}
}

// /debug/events degrades gracefully when telemetry is off: an empty event
// list, not a null or an error.
func TestDebugEventsTelemetryDisabled(t *testing.T) {
	s := newTestServer(t, Config{})
	telemetry.Disable()
	rec := get(s, "/debug/events")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"events": []`) {
		t.Errorf("disabled-telemetry body should carry an empty events array:\n%s", rec.Body.String())
	}
}

// /debug/trace captures a window and streams Perfetto-loadable trace_event
// JSON containing the requests served during the window.
func TestDebugTraceCapture(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	s := newTestServer(t, Config{})

	var captureRec *httptest.ResponseRecorder
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		captureRec = get(s, q("/debug/trace", "duration", "300ms"))
	}()
	deadline := time.Now().Add(2 * time.Second)
	for !telemetry.TracingEnabled() {
		if time.Now().After(deadline) {
			t.Fatal("trace capture never started")
		}
		time.Sleep(time.Millisecond)
	}
	// Served during the window → must appear as spans in the capture. A
	// concurrent capture attempt must be refused while the first holds the
	// exclusive tracer.
	if rec := get(s, chaosURL(t, s, 0, "bp")); rec.Code != http.StatusOK {
		t.Fatalf("request during capture: status %d", rec.Code)
	}
	if rec := get(s, q("/debug/trace", "duration", "1ms")); rec.Code != http.StatusConflict {
		t.Errorf("concurrent capture: status %d, want 409", rec.Code)
	}
	wg.Wait()

	if captureRec.Code != http.StatusOK {
		t.Fatalf("/debug/trace: status %d: %s", captureRec.Code, captureRec.Body.String())
	}
	if ct := captureRec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(captureRec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("trace body is not valid JSON: %v", err)
	}
	var sawRequestSpan bool
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "http_path" {
			sawRequestSpan = true
		}
	}
	if !sawRequestSpan {
		t.Errorf("capture has no http_path span among %d events", len(doc.TraceEvents))
	}

	for _, bad := range []string{
		q("/debug/trace", "duration", "banana"),
		q("/debug/trace", "duration", "-2s"),
		q("/debug/trace", "duration", "2h"),
	} {
		if rec := get(s, bad); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, rec.Code)
		}
	}
}

// With telemetry disabled /debug/trace cannot capture: 409, not a hang.
// (server.New enables process-global telemetry, so disable after it.)
func TestDebugTraceTelemetryDisabled(t *testing.T) {
	s := newTestServer(t, Config{})
	telemetry.Disable()
	if rec := get(s, q("/debug/trace", "duration", "10ms")); rec.Code != http.StatusConflict {
		t.Errorf("status %d, want 409", rec.Code)
	}
}

// /healthz reports the self-healing posture: ok on a healthy server, cache
// generation, an error budget — and "degraded" for a minute after a
// fallback serve.
func TestHealthzDegradedAndErrorBudget(t *testing.T) {
	telemetry.Disable()
	// Seed 10 draws ok, fail, ok: BP primes, the first hybrid build fails
	// and degrades onto the BP snapshot (same trick as the fallback test).
	s := newTestServer(t, Config{
		Chaos:            fault.NewChaos(10, 0.5, 0, 0),
		BreakerThreshold: -1,
	})

	type healthz struct {
		Status      string      `json:"status"`
		Breaker     breakerJSON `json:"breaker"`
		ErrorBudget struct {
			Requests     int64   `json:"requests"`
			Errors5xx    int64   `json:"errors5xx"`
			Degraded     int64   `json:"degraded"`
			Availability float64 `json:"availability"`
		} `json:"errorBudget"`
	}
	var h healthz
	if rec := getJSON(t, s.Handler(), "/healthz", &h); rec.Code != http.StatusOK {
		t.Fatalf("/healthz: status %d", rec.Code)
	}
	if h.Status != "ok" || h.Breaker.State != "closed" {
		t.Fatalf("fresh server: status=%q breaker=%q, want ok/closed", h.Status, h.Breaker.State)
	}

	if rec := get(s, chaosURL(t, s, 0, "bp")); rec.Code != http.StatusOK {
		t.Fatalf("BP prime: status %d", rec.Code)
	}
	var resp pathResponse
	if rec := getJSON(t, s.Handler(), chaosURL(t, s, 0, "hybrid"), &resp); rec.Code != http.StatusOK || resp.Degraded == "" {
		t.Fatalf("hybrid: status %d degraded %q, want a 200 fallback", rec.Code, resp.Degraded)
	}

	h = healthz{}
	getJSON(t, s.Handler(), "/healthz", &h)
	if h.Status != "degraded" {
		t.Errorf("status after a fallback serve = %q, want degraded", h.Status)
	}
	eb := h.ErrorBudget
	if eb.Requests < 2 || eb.Degraded != 1 {
		t.Errorf("errorBudget = %+v, want ≥2 requests and 1 degraded", eb)
	}
	if eb.Availability <= 0 || eb.Availability > 1 {
		t.Errorf("availability = %v, want in (0,1]", eb.Availability)
	}
}

// /metrics?format=prometheus emits text exposition with the server families
// under the leosim_ prefix; the default stays JSON.
func TestMetricsPrometheusFormat(t *testing.T) {
	telemetry.Disable()
	s := newTestServer(t, Config{})
	if rec := get(s, chaosURL(t, s, 0, "bp")); rec.Code != http.StatusOK {
		t.Fatalf("prime: status %d", rec.Code)
	}

	rec := get(s, "/metrics?format=prometheus")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	out := rec.Body.String()
	for _, want := range []string{
		"# TYPE leosim_requests counter",
		"# TYPE leosim_http_path_seconds histogram",
		"leosim_http_path_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "{") && !strings.Contains(out, `{le="`) {
		t.Errorf("unexpected labels in exposition:\n%s", out)
	}

	// JSON is still the default shape.
	var js map[string]interface{}
	if rec := getJSON(t, s.Handler(), "/metrics", &js); rec.Code != http.StatusOK {
		t.Fatalf("/metrics JSON: status %d", rec.Code)
	}
	if _, ok := js["server"]; !ok {
		t.Errorf("JSON /metrics lost its server block: %v", js)
	}
}

// TestMetricsFormatsAgree: /metrics renders one set of families in both
// formats. On a primed, oracle-attached server left quiet after a path
// request, a what-if and a batch, every JSON counter and gauge equals its
// leosim_<name> sample, every histogram's and stage's count equals its
// _count sample, and every Prometheus family is in the JSON. The runtime
// block is JSON-only, and http_metrics moves with the first scrape.
func TestMetricsFormatsAgree(t *testing.T) {
	telemetry.Disable()
	sim := serverSim(t)
	s := newTestServer(t, Config{PrimeSnapshots: true, PrimeOracles: true})
	if _, err := s.primeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	src, dst := sim.CityName(sim.Pairs[0].Src), sim.CityName(sim.Pairs[0].Dst)
	for _, url := range []string{
		q("/v1/path", "src", src, "dst", dst, "snap", "1"),
		q("/v1/path", "src", src, "dst", dst, "snap", "1", "fault", "sat", "fraction", "0.3", "fault-seed", "4"),
	} {
		if rec := get(s, url); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", url, rec.Code)
		}
	}
	body := `{"snap":1,"pairs":[{"src":"` + src + `","dst":"` + dst + `"}]}`
	if rec := postJSON(t, s.Handler(), "/v1/paths", []byte(body), nil); rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/paths: status %d\n%s", rec.Code, rec.Body.String())
	}

	var js struct {
		Server telemetry.RegistrySnapshot             `json:"server"`
		Stages map[string]telemetry.HistogramSnapshot `json:"stages"`
	}
	if rec := getJSON(t, s.Handler(), "/metrics", &js); rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	rec := get(s, "/metrics?format=prometheus")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics?format=prometheus: status %d", rec.Code)
	}
	samples := map[string]string{} // every sample but the buckets
	var families []string
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		if f := strings.Fields(line); strings.HasPrefix(line, "# TYPE ") {
			families = append(families, f[2])
		} else if !strings.Contains(f[0], "{") {
			samples[f[0]] = f[1]
		}
	}

	// want is every family the JSON names, with the sample its value or
	// count must equal (empty where the first scrape moves it).
	want := map[string]string{}
	for name, v := range js.Server.Counters {
		want["leosim_"+name] = strconv.FormatInt(v, 10)
	}
	for name, v := range js.Server.Gauges {
		want["leosim_"+name] = strconv.FormatInt(v, 10)
	}
	for name, h := range js.Server.Histograms {
		family := "leosim_" + strings.TrimSuffix(name, "_ms") + "_seconds"
		want[family] = strconv.FormatInt(h.Count, 10)
		if name == "http_metrics_ms" {
			want[family] = ""
		}
	}
	for name, h := range js.Stages {
		want["leosim_stage_"+name+"_seconds"] = strconv.FormatInt(h.Count, 10)
	}
	if len(js.Stages) != int(telemetry.NumStages) {
		t.Errorf("JSON stages has %d entries, want all %d", len(js.Stages), telemetry.NumStages)
	}
	for _, g := range []string{"cache_errors", "breaker_opens"} {
		if _, ok := js.Server.Gauges[g]; !ok {
			t.Errorf("JSON gauges lack %s", g)
		}
	}

	for _, family := range families {
		if _, ok := want[family]; !ok {
			t.Errorf("Prometheus family %s is not in the JSON", family)
		}
	}
	for family, v := range want {
		sample := family
		if _, ok := samples[family]; !ok {
			sample = family + "_count"
		}
		got, ok := samples[sample]
		switch {
		case !ok:
			t.Errorf("JSON names %s, the Prometheus text has no %s", family, sample)
		case v != "" && got != v:
			t.Errorf("%s = %s in the Prometheus text, %s in the JSON", sample, got, v)
		}
	}
	if samples["leosim_oracleHits"] == "0" || samples["leosim_stage_oracle_query_seconds_count"] == "0" {
		t.Errorf("the primed server answered no query from an oracle: %s oracle hits, %s oracle queries",
			samples["leosim_oracleHits"], samples["leosim_stage_oracle_query_seconds_count"])
	}
}

// TestOracleBytesGauge: /metrics's oracle_bytes is the label memory of the
// resident oracles — after priming a tiny day, Σ Stats().Bytes over the
// oracle attachedOracle reads for every (instant, mode), in the JSON and the
// Prometheus text alike — and an evicted entry's oracle leaves the sum.
func TestOracleBytesGauge(t *testing.T) {
	sim := serverSim(t)
	// Room for the primed day and nothing else: the next key evicts an entry
	// that carries an oracle.
	s := newTestServer(t, Config{PrimeSnapshots: true, PrimeOracles: true, CacheSize: 2 * len(sim.SnapshotTimes())})
	if _, err := s.primeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	gauge := func() (fromJSON, fromText int64) {
		t.Helper()
		var js struct {
			Server telemetry.RegistrySnapshot `json:"server"`
		}
		if rec := getJSON(t, s.Handler(), "/metrics", &js); rec.Code != http.StatusOK {
			t.Fatalf("/metrics: status %d", rec.Code)
		}
		fromJSON, fromText = js.Server.Gauges["oracle_bytes"], -1
		for _, line := range strings.Split(get(s, "/metrics?format=prometheus").Body.String(), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[0] == "leosim_oracle_bytes" {
				v, err := strconv.ParseInt(f[1], 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				fromText = v
			}
		}
		return fromJSON, fromText
	}
	var want int64
	for _, at := range sim.SnapshotTimes() {
		for _, mode := range []core.Mode{core.BP, core.Hybrid} {
			o, _ := s.attachedOracle(snapSpec{t: at, mode: mode})
			if o == nil {
				t.Fatalf("%s@%v: no oracle attached after priming", mode, at)
			}
			want += o.Stats().Bytes
		}
	}
	if js, text := gauge(); js != want || text != want {
		t.Fatalf("oracle_bytes %d in the JSON, %d in the Prometheus text; the attached oracles hold %d", js, text, want)
	}
	src, dst := sim.CityName(sim.Pairs[0].Src), sim.CityName(sim.Pairs[0].Dst)
	if rec := get(s, q("/v1/path", "src", src, "dst", dst, "snap", "0", "fault", "sat", "fraction", "0.1", "fault-seed", "3")); rec.Code != http.StatusOK {
		t.Fatalf("what-if: status %d", rec.Code)
	}
	var left int64
	for _, at := range sim.SnapshotTimes() {
		for _, mode := range []core.Mode{core.BP, core.Hybrid} {
			if o, _ := s.attachedOracle(snapSpec{t: at, mode: mode}); o != nil {
				left += o.Stats().Bytes
			}
		}
	}
	if js, text := gauge(); left >= want || js != left || text != left {
		t.Fatalf("after an eviction oracle_bytes reads %d in the JSON, %d in the Prometheus text; the attached oracles hold %d of %d", js, text, left, want)
	}
}
