package server

import (
	"errors"
	"fmt"
	"net/url"
	"strings"
	"testing"
	"time"

	"leosim/internal/geo"
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
