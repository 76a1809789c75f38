package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"leosim/internal/core"
)

// FuzzPathResponseJSON holds pathResponse.appendJSON to writeJSON's bytes:
// json.Encoder with a two-space indent on the same struct, byte for byte.
func FuzzPathResponseJSON(f *testing.F) {
	epoch := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, r := range []pathResponse{
		{Time: epoch, Mode: "bp", Src: "Tokyo", Dst: "Delhi",
			Path: core.PathQuery{Reachable: true, RTTMs: 123.456, OneWayMs: 61.728, Hops: 7, Route: []string{"Tokyo", "sat-12", "gs-3", "sat-99", "Delhi"}, RelayHops: 1, CityHops: 1}},
		{Time: epoch.Add(90 * time.Minute), Mode: "hybrid", Src: "São Paulo", Dst: "Maceió"}, // unreachable
		{Time: epoch.Add(123456789 * time.Nanosecond), Mode: "bp", Src: "A&B<c>", Dst: "quote\" backslash\\ tab\t nul\x00 bell\a bs\b ff\f nl\n cr\r del\x7f",
			Fault: "sat:0.2:7", Degraded: "stale-cache",
			Path: core.PathQuery{Reachable: true, RTTMs: 1e-7, OneWayMs: 1e21, Hops: 1, Route: []string{"<x>", ""}}},
		{Time: epoch.Add(1500 * time.Nanosecond), Mode: "hybrid", Src: "bad utf8 \xff\xfe \xe2\x80", Dst: "line\u2028sep para\u2029sep",
			Fault: "plane:0.1:1",
			Path:  core.PathQuery{Reachable: true, RTTMs: 5e-324, OneWayMs: math.MaxFloat64, Hops: math.MaxInt, AircraftHops: 2}},
		{Time: epoch.Add(time.Millisecond), Mode: "bp", Src: "x", Dst: "y", Degraded: "bp-fallback",
			Path: core.PathQuery{Reachable: true, RTTMs: -1.2345678901234567e-6, OneWayMs: math.Copysign(0, -1), Hops: math.MinInt, AircraftHops: -1, RelayHops: -2, CityHops: -3}},
		{Time: epoch, Mode: "", Src: "", Dst: "", Path: core.PathQuery{Route: []string{}}},
	} {
		q := r.Path
		f.Add(r.Time.Unix(), int64(r.Time.Nanosecond()), r.Mode, r.Src, r.Dst, r.Fault, r.Degraded,
			q.Reachable, q.RTTMs, q.OneWayMs, q.Hops, strings.Join(q.Route, "|"), len(q.Route),
			q.AircraftHops, q.RelayHops, q.CityHops)
	}
	f.Fuzz(func(t *testing.T, sec, nsec int64, mode, src, dst, fault, degraded string,
		reachable bool, rtt, oneWay float64, hops int, route string, routeLen int,
		aircraft, relay, city int) {
		r := pathResponse{
			Time: time.Unix(sec, nsec).UTC(), Mode: mode, Src: src, Dst: dst, Fault: fault, Degraded: degraded,
			Path: core.PathQuery{Reachable: reachable, RTTMs: rtt, OneWayMs: oneWay, Hops: hops,
				AircraftHops: aircraft, RelayHops: relay, CityHops: city},
		}
		if routeLen > 0 {
			r.Path.Route = strings.Split(route, "|")
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			t.Skip(err) // a non-finite float or a year outside [0,9999]: no answer carries one
		}
		prefix := []byte("x")
		got := r.appendJSON(prefix)
		if !bytes.Equal(got[:1], prefix) || !bytes.Equal(got[1:], want.Bytes()) {
			t.Fatalf("reply %+v\nappendJSON: %s\nencoding/json: %s", r, got[1:], want.Bytes())
		}
	})
}

// pathAllocBudget bounds the heap allocations of one warm GET /v1/path
// through Handler(), beyond the ResponseRecorder's own.
const pathAllocBudget = 30

// TestPathHandlerAllocBudget holds a warm, oracle-served GET /v1/path to its
// allocation budget. The server is configured as a benchmarked one is: primed,
// oracles attached, and a text request log at info writing to io.Discard, so
// the log line is formatted as it is in production. What the
// httptest.ResponseRecorder allocates to hold the same reply is subtracted.
func TestPathHandlerAllocBudget(t *testing.T) {
	sim := serverSim(t)
	s := newTestServer(t, Config{
		PrimeSnapshots: true,
		PrimeOracles:   true,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
	})
	if _, err := s.primeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	req := httptest.NewRequest("GET", q("/v1/path", "src", sim.CityName(sim.Pairs[0].Src), "dst", sim.CityName(sim.Pairs[0].Dst)), nil)
	warm := httptest.NewRecorder()
	hits := s.oracleHits.Value()
	h.ServeHTTP(warm, req)
	if warm.Code != http.StatusOK || s.oracleHits.Value() != hits+1 {
		t.Fatalf("warm request: status %d, oracle hits %d → %d; want 200 off the attached oracle",
			warm.Code, hits, s.oracleHits.Value())
	}
	body := warm.Body.Bytes()
	header := warm.Header().Clone()

	const runs = 200
	served := testing.AllocsPerRun(runs, func() {
		h.ServeHTTP(httptest.NewRecorder(), req)
	})
	recorder := testing.AllocsPerRun(runs, func() {
		rec := httptest.NewRecorder()
		for k, v := range header {
			rec.Header()[k] = v
		}
		rec.WriteHeader(http.StatusOK)
		rec.Write(body) //nolint:errcheck // a recorder never fails
	})
	got := served - recorder
	t.Logf("warm GET /v1/path: %.0f allocations (%.0f served, %.0f the recorder's)", got, served, recorder)
	if got > pathAllocBudget {
		t.Errorf("warm GET /v1/path makes %.0f allocations, budget %d", got, pathAllocBudget)
	}
}
