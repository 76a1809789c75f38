package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"leosim/internal/core"
	"leosim/internal/fault"
	"leosim/internal/geo"
	"leosim/internal/snapcache"
)

// TestFrontEndsAgree feeds the same snapshot selection through the GET
// adapter (query parameters) and the POST adapter (a /v1/paths body) and
// requires the same snapSpec, or the same 400: one validator sits behind
// both, so they cannot drift apart. Numbers are written as numbers on both
// sides — a non-numeric snap is a query-string-only mistake (JSON rejects it
// at decode), covered by the served-bytes golden instead.
func TestFrontEndsAgree(t *testing.T) {
	times := []time.Time{geo.Epoch, geo.Epoch.Add(time.Hour)}
	cases := []struct{ mode, snap, t, fault, fraction, seed string }{
		{},
		{mode: "bp"},
		{mode: "hybrid", snap: "1"},
		{mode: "warp"},
		{mode: "HYBRID"},
		{snap: "0"},
		{snap: "2"},
		{snap: "-1"},
		{t: "90m"},
		{t: "0s"},
		{t: "-5m"},
		{t: "yesterday"},
		{t: "2020-03-01T00:30:00Z"},
		{t: "2020-03-01T02:30:00+02:00"},
		{snap: "1", t: "90m"},
		{fault: "sat"},
		{fault: "plane", fraction: "0.25"},
		{fault: "site", seed: "42"},
		{fault: "isl", fraction: "1", seed: "-3"},
		{fault: "gslcap", fraction: "0", seed: "0"},
		{fault: "sat", fraction: "1e-3"},
		{fault: "meteor"},
		{fault: "sat", fraction: "1.5"},
		{fault: "sat", fraction: "-0.1"},
		{fraction: "0.5"},
		{seed: "3"},
		{mode: "hybrid", t: "15m", fault: "sat", fraction: "0.2", seed: "7"},
		{mode: "warp", snap: "9", fault: "meteor"},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%+v", c), func(t *testing.T) {
			q := url.Values{}
			var body []string
			for _, p := range []struct {
				query, json, val string
				quoted           bool
			}{
				{"mode", "mode", c.mode, true},
				{"snap", "snap", c.snap, false},
				{"t", "t", c.t, true},
				{"fault", "fault", c.fault, true},
				{"fraction", "fraction", c.fraction, false},
				{"fault-seed", "faultSeed", c.seed, false},
			} {
				if p.val == "" {
					continue
				}
				q.Set(p.query, p.val)
				if p.quoted {
					body = append(body, fmt.Sprintf("%q:%q", p.json, p.val))
				} else {
					body = append(body, fmt.Sprintf("%q:%s", p.json, p.val))
				}
			}
			body = append(body, `"pairs":[{"src":"A","dst":"B"}]`)

			getSpec, getErr := querySpec(q, times)
			_, postSpec, postErr := decodeBatchPaths([]byte("{"+strings.Join(body, ",")+"}"), 1, times)

			if (getErr == nil) != (postErr == nil) {
				t.Fatalf("GET error %v, POST error %v", getErr, postErr)
			}
			if getErr == nil {
				if getSpec != postSpec {
					t.Fatalf("GET resolved %+v, POST %+v", getSpec, postSpec)
				}
				return
			}
			var getBad, postBad *badRequestError
			if !errors.As(getErr, &getBad) || !errors.As(postErr, &postBad) {
				t.Fatalf("errors are %T and %T, want *badRequestError both", getErr, postErr)
			}
			// The two front-ends spell one parameter differently; the message
			// that names it is otherwise the same.
			if want := strings.ReplaceAll(postBad.msg, "faultSeed", "fault-seed"); getBad.msg != want {
				t.Fatalf("GET says %q, POST says %q", getBad.msg, postBad.msg)
			}
		})
	}
}

// TestEveryValidFaultBuilds holds the guarantee a typed spec gives: a build
// reads only values snapForm.spec accepted, so every spec it accepts builds,
// and no request's input can feed the breaker. The table is the edge of what
// it accepts: all five scenarios; fraction 0, 1, -0 and the smallest
// subnormal; the least and the greatest seed; both modes; an instant on the
// schedule and one off it.
func TestEveryValidFaultBuilds(t *testing.T) {
	s := newTestServer(t, Config{CacheSize: 256, BreakerThreshold: 1})
	ctx := context.Background()
	builds := 0
	for _, sc := range fault.Scenarios() {
		for _, frac := range []float64{0, 1, math.Copysign(0, -1), math.SmallestNonzeroFloat64} {
			for _, seed := range []int64{math.MinInt64, math.MaxInt64} {
				for _, mode := range []string{"bp", "hybrid"} {
					for _, at := range []string{"", "7m30s"} {
						f := snapForm{mode: mode, t: at, fault: string(sc), fraction: &frac, seed: &seed}
						spec, err := f.spec(s.times, "fault-seed")
						if err != nil {
							t.Fatalf("%s %s t=%q fraction %g seed %d refused: %v", sc, mode, at, frac, seed, err)
						}
						if onSchedule := slices.Contains(s.times, spec.t); onSchedule != (at == "") {
							t.Fatalf("t=%q resolved to %v, on the schedule: %v", at, spec.t, onSchedule)
						}
						v, err := s.cache.Get(ctx, spec)
						if err != nil {
							t.Fatalf("%v: build failed: %v", spec, err)
						}
						parent, ok := s.cache.GetCached(spec.healthy())
						if !ok || v.N != parent.N {
							t.Fatalf("%v: the view is not of its resident healthy parent", spec)
						}
						builds++
					}
				}
			}
		}
	}
	if st := s.cache.Stats(); st.Errors != 0 || st.Builds == 0 {
		t.Errorf("%d specs: %d builds, %d failed; want none failed", builds, st.Builds, st.Errors)
	}
	if br := s.cache.Breaker(); br.State != snapcache.BreakerClosed || br.FailureStreak != 0 {
		t.Errorf("breaker %s with streak %d after %d valid specs, want closed at 0", br.State, br.FailureStreak, builds)
	}
}

// TestWhatIfFloodLeavesBreakerClosed: distinct valid what-ifs are builds that
// cannot fail on their input, so a flood of them through GET /v1/path leaves
// build_failure_streak at 0 and the breaker closed, however low its threshold.
func TestWhatIfFloodLeavesBreakerClosed(t *testing.T) {
	s := newTestServer(t, Config{BreakerThreshold: 1})
	sim := serverSim(t)
	const flood = 24
	scenarios := fault.Scenarios()
	for i := 0; i < flood; i++ {
		url := q("/v1/path", "src", sim.CityName(sim.Pairs[0].Src), "dst", sim.CityName(sim.Pairs[0].Dst),
			"snap", strconv.Itoa(i%2), "mode", []string{"bp", "hybrid"}[i/2%2],
			"fault", string(scenarios[i%len(scenarios)]),
			"fraction", strconv.FormatFloat(float64(i)/(flood-1), 'g', -1, 64),
			"fault-seed", strconv.Itoa(7919*i-50000))
		if rec := get(s, url); rec.Code != http.StatusOK {
			t.Fatalf("what-if %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	if st := s.cache.Stats(); st.Builds < flood || st.Errors != 0 {
		t.Fatalf("%d distinct what-ifs ran %d builds, %d failed; want at least %d, none failed", flood, st.Builds, st.Errors, flood)
	}
	var metrics struct {
		Server struct {
			Gauges map[string]int64 `json:"gauges"`
		} `json:"server"`
	}
	if rec := getJSON(t, s.Handler(), "/metrics", &metrics); rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	g := metrics.Server.Gauges
	if g["build_failure_streak"] != 0 || g["breaker_state"] != int64(snapcache.BreakerClosed) || g["breaker_opens"] != 0 {
		t.Errorf("after %d what-ifs: build_failure_streak %d, breaker_state %d, breaker_opens %d; want 0, closed, 0",
			flood, g["build_failure_streak"], g["breaker_state"], g["breaker_opens"])
	}
}

// TestSpecStringTellsKeysApart: events and logs name a snapshot by its spec's
// String, so specs that are distinct keys render distinct text — instants a
// fraction of a second apart included — and a what-if reads mode@instant,
// then its fault as the wire spells it.
func TestSpecStringTellsKeysApart(t *testing.T) {
	at := geo.Epoch.Add(7 * time.Minute)
	sat := snapSpec{t: at, mode: core.BP, scenario: fault.SatOutage, fraction: 0.1, seed: 1}
	specs := []snapSpec{sat.healthy(), {t: at.Add(250 * time.Millisecond)}, {t: at, mode: core.Hybrid}, sat}
	for _, f := range []func(*snapSpec){
		func(s *snapSpec) { s.seed = 2 },
		func(s *snapSpec) { s.scenario = fault.PlaneOutage },
		func(s *snapSpec) { s.fraction = 0 },
		func(s *snapSpec) { s.fraction = math.SmallestNonzeroFloat64 },
	} {
		spec := sat
		f(&spec)
		specs = append(specs, spec)
	}
	seen := map[string]snapSpec{}
	for _, spec := range specs {
		if other, dup := seen[spec.String()]; dup {
			t.Errorf("%#v and %#v both render %q", other, spec, spec.String())
		}
		seen[spec.String()] = spec
	}
	if got, want := sat.String(), "bp@2020-03-01T00:07:00Z+sat:0.1:1"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
