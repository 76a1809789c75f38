package server

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

// goldenRequest is one fixed request of the served-bytes golden. An empty
// body means GET.
type goldenRequest struct {
	name string
	url  string
	body string
}

// goldenRequests is the fixed request script, in order: the order matters
// because the server is stateful (the first /v1/paths against a snapshot
// builds and attaches its oracle, after which /v1/path and /v1/latency on
// that snapshot are oracle-served).
func goldenRequests() []goldenRequest {
	get := func(name, path string, kv ...string) goldenRequest {
		return goldenRequest{name: name, url: q(path, kv...)}
	}
	post := func(name, body string) goldenRequest {
		return goldenRequest{name: name, url: "/v1/paths", body: body}
	}
	const tokyoDelhi = `{"src":"Tokyo","dst":"Delhi"}`
	const pairs3 = `[{"src":"Tokyo","dst":"Delhi"},{"src":"Delhi","dst":"Shanghai"},{"src":"Paris","dst":"Tokyo"}]`
	reqs := []goldenRequest{
		// Kernel-served: nothing attached yet.
		get("path kernel bp", "/v1/path", "src", "Tokyo", "dst", "Delhi", "snap", "0"),
		get("path kernel hybrid snap1", "/v1/path", "src", "Paris", "dst", "Tokyo", "snap", "1", "mode", "hybrid"),
		get("path kernel t offset", "/v1/path", "src", "Tokyo", "dst", "Delhi", "t", "90m"),
		get("path kernel t rfc3339", "/v1/path", "src", "Tokyo", "dst", "Delhi", "t", "2020-01-01T00:30:00Z", "mode", "hybrid"),
		get("path default snapshot", "/v1/path", "src", "Delhi", "dst", "Shanghai"),
		get("latency kernel bp", "/v1/latency", "src", "Tokyo", "dst", "Delhi"),
		// The first batch builds and attaches the snap-0 bp oracle; the
		// second finds it.
		post("paths builds oracle", `{"snap":0,"pairs":`+pairs3+`}`),
		post("paths cached with routes", `{"snap":0,"includeRoutes":true,"pairs":`+pairs3+`}`),
		post("paths hybrid t offset", `{"mode":"hybrid","t":"15m","pairs":[`+tokyoDelhi+`]}`),
		// Oracle-served: same bytes as the kernel-served answers above.
		get("path oracle bp", "/v1/path", "src", "Tokyo", "dst", "Delhi", "snap", "0"),
		get("path oracle default snapshot", "/v1/path", "src", "Delhi", "dst", "Shanghai"),
		get("latency half oracle bp", "/v1/latency", "src", "Tokyo", "dst", "Delhi"),
		get("latency hybrid", "/v1/latency", "src", "Paris", "dst", "Tokyo", "mode", "hybrid"),
		// Faulted: a masked build under its own cache key.
		get("path faulted kernel", "/v1/path", "src", "Tokyo", "dst", "Delhi", "fault", "sat", "fraction", "0.2", "fault-seed", "7"),
		get("path faulted defaults", "/v1/path", "src", "Tokyo", "dst", "Delhi", "fault", "plane"),
		post("paths faulted", `{"fault":"sat","fraction":0.2,"faultSeed":7,"includeRoutes":true,"pairs":`+pairs3+`}`),
		get("path faulted oracle", "/v1/path", "src", "Tokyo", "dst", "Delhi", "fault", "sat", "fraction", "0.2", "fault-seed", "7"),
		get("latency faulted", "/v1/latency", "src", "Tokyo", "dst", "Delhi", "fault", "sat", "fraction", "0.2", "fault-seed", "7"),
		// Unreachable: every satellite out. Kernel-served, then oracle-served.
		get("path unreachable kernel", "/v1/path", "src", "Tokyo", "dst", "Delhi", "fault", "sat", "fraction", "1"),
		get("latency unreachable kernel", "/v1/latency", "src", "Tokyo", "dst", "Delhi", "fault", "sat", "fraction", "1"),
		post("paths unreachable", `{"fault":"sat","fraction":1,"includeRoutes":true,"pairs":[`+tokyoDelhi+`]}`),
		get("path unreachable oracle", "/v1/path", "src", "Tokyo", "dst", "Delhi", "fault", "sat", "fraction", "1"),
		get("latency unreachable half oracle", "/v1/latency", "src", "Tokyo", "dst", "Delhi", "fault", "sat", "fraction", "1"),
		// Reachability never consults the oracle.
		get("reachability", "/v1/reachability"),
		get("reachability src hybrid", "/v1/reachability", "src", "Tokyo", "snap", "1", "mode", "hybrid"),
		get("reachability faulted", "/v1/reachability", "src", "Delhi", "fault", "sat", "fraction", "0.2", "fault-seed", "7"),
	}

	// The GET front-end's 400/404 matrix, on every endpoint that reads the
	// parameter.
	type badQuery struct {
		name string
		kv   []string
		on   string // endpoints that read the parameter: p(ath) l(atency) r(eachability)
	}
	bad := []badQuery{
		{"missing src", []string{"dst", "Delhi"}, "pl"},
		{"missing dst", []string{"src", "Tokyo"}, "pl"},
		{"unknown src", []string{"src", "Atlantis", "dst", "Delhi"}, "plr"},
		{"unknown dst", []string{"src", "Tokyo", "dst", "Atlantis"}, "pl"},
		{"bad mode", []string{"src", "Tokyo", "dst", "Delhi", "mode", "warp"}, "plr"},
		{"snap not a number", []string{"src", "Tokyo", "dst", "Delhi", "snap", "first"}, "pr"},
		{"snap out of range", []string{"src", "Tokyo", "dst", "Delhi", "snap", "99"}, "pr"},
		{"snap negative", []string{"src", "Tokyo", "dst", "Delhi", "snap", "-1"}, "pr"},
		{"bad t", []string{"src", "Tokyo", "dst", "Delhi", "t", "yesterday"}, "pr"},
		{"negative t", []string{"src", "Tokyo", "dst", "Delhi", "t", "-5m"}, "pr"},
		{"snap and t", []string{"src", "Tokyo", "dst", "Delhi", "snap", "1", "t", "90m"}, "pr"},
		{"fraction without fault", []string{"src", "Tokyo", "dst", "Delhi", "fraction", "0.5"}, "plr"},
		{"fault-seed without fault", []string{"src", "Tokyo", "dst", "Delhi", "fault-seed", "3"}, "plr"},
		{"bad fault", []string{"src", "Tokyo", "dst", "Delhi", "fault", "meteor"}, "plr"},
		{"fraction not a number", []string{"src", "Tokyo", "dst", "Delhi", "fault", "sat", "fraction", "half"}, "plr"},
		{"fraction out of range", []string{"src", "Tokyo", "dst", "Delhi", "fault", "sat", "fraction", "1.5"}, "plr"},
		{"fault-seed not an integer", []string{"src", "Tokyo", "dst", "Delhi", "fault", "sat", "fault-seed", "x"}, "plr"},
	}
	endpoints := []struct {
		tag  string
		path string
	}{{"p", "/v1/path"}, {"l", "/v1/latency"}, {"r", "/v1/reachability"}}
	for _, b := range bad {
		for _, ep := range endpoints {
			if strings.Contains(b.on, ep.tag) {
				reqs = append(reqs, get("bad "+ep.path+" "+b.name, ep.path, b.kv...))
			}
		}
	}

	// The POST front-end's 400/404 matrix.
	for _, b := range [][2]string{
		{"malformed JSON", `{"pairs":[`},
		{"not an object", `[1,2,3]`},
		{"unknown field", `{"pears":[` + tokyoDelhi + `]}`},
		{"trailing data", `{"pairs":[` + tokyoDelhi + `]}{}`},
		{"empty pairs", `{"pairs":[]}`},
		{"missing pairs", `{"mode":"bp"}`},
		{"duplicate pair", `{"pairs":[` + tokyoDelhi + `,` + tokyoDelhi + `]}`},
		{"src equals dst", `{"pairs":[{"src":"Tokyo","dst":"Tokyo"}]}`},
		{"empty src", `{"pairs":[{"src":"","dst":"Tokyo"}]}`},
		{"bad mode", `{"mode":"warp","pairs":[` + tokyoDelhi + `]}`},
		{"snap and t", `{"snap":0,"t":"90m","pairs":[` + tokyoDelhi + `]}`},
		{"snap out of range", `{"snap":99,"pairs":[` + tokyoDelhi + `]}`},
		{"snap negative", `{"snap":-1,"pairs":[` + tokyoDelhi + `]}`},
		{"bad t", `{"t":"yesterday","pairs":[` + tokyoDelhi + `]}`},
		{"negative t", `{"t":"-5m","pairs":[` + tokyoDelhi + `]}`},
		{"fraction without fault", `{"fraction":0.5,"pairs":[` + tokyoDelhi + `]}`},
		{"faultSeed without fault", `{"faultSeed":3,"pairs":[` + tokyoDelhi + `]}`},
		{"bad fault", `{"fault":"meteor","pairs":[` + tokyoDelhi + `]}`},
		{"fraction out of range", `{"fault":"sat","fraction":1.5,"pairs":[` + tokyoDelhi + `]}`},
		{"fraction not a number", `{"fault":"sat","fraction":"half","pairs":[` + tokyoDelhi + `]}`},
		{"unknown src city", `{"pairs":[{"src":"Atlantis","dst":"Tokyo"}]}`},
		{"unknown dst city", `{"pairs":[{"src":"Tokyo","dst":"Atlantis"}]}`},
	} {
		reqs = append(reqs, post("bad /v1/paths "+b[0], b[1]))
	}
	return reqs
}

var (
	goldenTraceID = regexp.MustCompile(`"traceId": "[0-9a-f]+"`)
	goldenBuildMs = regexp.MustCompile(`"buildMs": [0-9.e+-]+`)
)

// TestServedBytesGolden replays a fixed request script against one fresh
// server and compares every response — status, body bytes, and the
// requests/oracleHits/oracleBuilds counter deltas the request caused —
// against testdata/served.golden. Only the per-request trace ID and the
// oracle's wall-clock build time are normalised. Rerun with -update only for
// an intended response change, and read the fixture's diff.
func TestServedBytesGolden(t *testing.T) {
	s := newTestServer(t, Config{})
	var got bytes.Buffer
	for _, gr := range goldenRequests() {
		method, body := "GET", ""
		if gr.body != "" {
			method, body = "POST", gr.body
		}
		req := httptest.NewRequest(method, gr.url, strings.NewReader(body))
		rec := httptest.NewRecorder()
		requests, hits, builds := s.requests.Value(), s.oracleHits.Value(), s.oracleBuilds.Value()
		s.Handler().ServeHTTP(rec, req)
		out := goldenTraceID.ReplaceAll(rec.Body.Bytes(), []byte(`"traceId": "T"`))
		out = goldenBuildMs.ReplaceAll(out, []byte(`"buildMs": 0`))
		unescaped, err := url.QueryUnescape(gr.url)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "=== %s\n%s %s %s\nstatus %d  requests +%d  oracleHits +%d  oracleBuilds +%d\n%s\n",
			gr.name, method, unescaped, body, rec.Code,
			s.requests.Value()-requests, s.oracleHits.Value()-hits, s.oracleBuilds.Value()-builds, out)
		if rec.Code >= http.StatusInternalServerError {
			t.Errorf("%s: status %d", gr.name, rec.Code)
		}
	}

	path := filepath.Join("testdata", "served.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("served bytes differ from %s; rerun with -update if the change is intentional.\n%s",
			path, firstDiff(got.String(), string(want)))
	}
}

// firstDiff reports the first differing line of two texts with the golden
// section ("=== name") it falls in.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	section := ""
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if strings.HasPrefix(wl, "=== ") {
			section = wl
		}
		if gl != wl {
			return fmt.Sprintf("first difference at line %d (%s):\n got: %s\nwant: %s", i+1, section, gl, wl)
		}
	}
	return "no line differs"
}
