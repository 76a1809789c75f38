package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"leosim/internal/core"
	"leosim/internal/geo"
	"leosim/internal/ground"
	"leosim/internal/oracle"
	"leosim/internal/telemetry"
)

func postJSON(t *testing.T, h http.Handler, url string, body []byte, out interface{}) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", url, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s: bad JSON: %v\n%s", url, err, rec.Body.String())
		}
	}
	return rec
}

type batchRespJSON struct {
	Mode   string `json:"mode"`
	Count  int    `json:"count"`
	Oracle struct {
		Cached  bool    `json:"cached"`
		BuildMs float64 `json:"buildMs"`
		Sources int     `json:"sources"`
	} `json:"oracle"`
	Results []struct {
		Src       string   `json:"src"`
		Dst       string   `json:"dst"`
		Reachable bool     `json:"reachable"`
		RTTMs     float64  `json:"rttMs"`
		OneWayMs  float64  `json:"oneWayMs"`
		Hops      int      `json:"hops"`
		Route     []string `json:"route"`
	} `json:"results"`
}

// TestBatchPathsMatchesSingle is the serving-level differential: every entry
// of a POST /v1/paths batch must equal the corresponding GET /v1/path answer
// — RTT, hops, and the full named route — for both modes.
func TestBatchPathsMatchesSingle(t *testing.T) {
	sim := serverSim(t)
	s := newTestServer(t, Config{})
	pairs := [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 5}}
	for _, mode := range []string{"bp", "hybrid"} {
		body := map[string]interface{}{
			"mode": mode, "snap": 1, "includeRoutes": true,
			"pairs": []map[string]string{},
		}
		bp := body["pairs"].([]map[string]string)
		for _, p := range pairs {
			bp = append(bp, map[string]string{"src": sim.CityName(p[0]), "dst": sim.CityName(p[1])})
		}
		body["pairs"] = bp
		payload, _ := json.Marshal(body)
		var batch batchRespJSON
		if rec := postJSON(t, s.Handler(), "/v1/paths", payload, &batch); rec.Code != http.StatusOK {
			t.Fatalf("POST /v1/paths (%s): %d\n%s", mode, rec.Code, rec.Body.String())
		}
		if batch.Count != len(pairs) || len(batch.Results) != len(pairs) {
			t.Fatalf("batch answered %d/%d pairs", len(batch.Results), len(pairs))
		}
		if batch.Oracle.Sources != sim.NumCities() {
			t.Fatalf("oracle labelled %d sources, want %d", batch.Oracle.Sources, sim.NumCities())
		}
		for i, p := range pairs {
			var single struct {
				Path struct {
					Reachable bool     `json:"reachable"`
					RTTMs     float64  `json:"rttMs"`
					Hops      int      `json:"hops"`
					Route     []string `json:"route"`
				} `json:"path"`
			}
			url := q("/v1/path", "src", sim.CityName(p[0]), "dst", sim.CityName(p[1]), "mode", mode, "snap", "1")
			if rec := getJSON(t, s.Handler(), url, &single); rec.Code != http.StatusOK {
				t.Fatalf("GET %s: %d", url, rec.Code)
			}
			got := batch.Results[i]
			if got.Reachable != single.Path.Reachable {
				t.Fatalf("pair %d (%s): batch reachable=%v, single=%v", i, mode, got.Reachable, single.Path.Reachable)
			}
			if !got.Reachable {
				continue
			}
			if got.RTTMs != single.Path.RTTMs || got.Hops != single.Path.Hops {
				t.Fatalf("pair %d (%s): batch (%.6f ms, %d hops) != single (%.6f ms, %d hops)",
					i, mode, got.RTTMs, got.Hops, single.Path.RTTMs, single.Path.Hops)
			}
			if strings.Join(got.Route, "|") != strings.Join(single.Path.Route, "|") {
				t.Fatalf("pair %d (%s): batch route %v != single route %v", i, mode, got.Route, single.Path.Route)
			}
		}
	}
}

// TestBatchPathsValidation pins every rejection class the decoder and
// handler promise: 400s for malformed bodies, 404 for unknown cities, and
// clean answers never panic out of the handler.
func TestBatchPathsValidation(t *testing.T) {
	sim := serverSim(t)
	s := newTestServer(t, Config{})
	pair := func(a, b int) string {
		return fmt.Sprintf(`{"src":%q,"dst":%q}`, sim.CityName(a), sim.CityName(b))
	}
	manyPairs := make([]string, MaxBatchPairs+1)
	for i := range manyPairs {
		manyPairs[i] = pair(0, 1) // duplicates, but the limit check fires first
	}
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed JSON", `{"pairs":[`, http.StatusBadRequest},
		{"unknown field", `{"pears":[` + pair(0, 1) + `]}`, http.StatusBadRequest},
		{"trailing data", `{"pairs":[` + pair(0, 1) + `]}{}`, http.StatusBadRequest},
		{"empty pairs", `{"pairs":[]}`, http.StatusBadRequest},
		{"missing pairs", `{"mode":"bp"}`, http.StatusBadRequest},
		{"duplicate pair", `{"pairs":[` + pair(0, 1) + `,` + pair(0, 1) + `]}`, http.StatusBadRequest},
		{"src equals dst", `{"pairs":[` + pair(2, 2) + `]}`, http.StatusBadRequest},
		{"empty src", `{"pairs":[{"src":"","dst":"Tokyo"}]}`, http.StatusBadRequest},
		{"bad mode", `{"mode":"warp","pairs":[` + pair(0, 1) + `]}`, http.StatusBadRequest},
		{"snap and t", `{"snap":0,"t":"90m","pairs":[` + pair(0, 1) + `]}`, http.StatusBadRequest},
		{"snap out of range", `{"snap":99,"pairs":[` + pair(0, 1) + `]}`, http.StatusBadRequest},
		{"bad t", `{"t":"yesterday","pairs":[` + pair(0, 1) + `]}`, http.StatusBadRequest},
		{"fraction without fault", `{"fraction":0.5,"pairs":[` + pair(0, 1) + `]}`, http.StatusBadRequest},
		{"bad fault scenario", `{"fault":"meteor","pairs":[` + pair(0, 1) + `]}`, http.StatusBadRequest},
		{"fraction out of range", `{"fault":"sat","fraction":1.5,"pairs":[` + pair(0, 1) + `]}`, http.StatusBadRequest},
		{"limit overflow", `{"pairs":[` + strings.Join(manyPairs, ",") + `]}`, http.StatusBadRequest},
		{"unknown src city", `{"pairs":[{"src":"Atlantis","dst":"Tokyo"}]}`, http.StatusNotFound},
		{"unknown dst city", `{"pairs":[{"src":"Tokyo","dst":"Atlantis"}]}`, http.StatusNotFound},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := postJSON(t, s.Handler(), "/v1/paths", []byte(c.body), nil)
			if rec.Code != c.want {
				t.Fatalf("status %d, want %d\n%s", rec.Code, c.want, rec.Body.String())
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("error body not JSON with error field: %s", rec.Body.String())
			}
		})
	}

	// An oversized body is rejected before the decoder ever sees it.
	huge := make([]byte, maxBatchBodyBytes+2)
	for i := range huge {
		huge[i] = ' '
	}
	if rec := postJSON(t, s.Handler(), "/v1/paths", huge, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400", rec.Code)
	}
}

// TestBatchBodyRead sends bodies over HTTP both ways a client can: with a
// Content-Length, which sizes the read's one buffer, and chunked, which grows
// it. A body one byte past maxBatchBodyBytes gets the same 400 either way, and
// a batch sent chunked is answered as the same batch sent with its length.
func TestBatchBodyRead(t *testing.T) {
	sim := serverSim(t)
	s := newTestServer(t, Config{})
	var (
		mu      sync.Mutex
		lengths []int64 // the Content-Length each request arrived with
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		lengths = append(lengths, r.ContentLength)
		mu.Unlock()
		s.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()
	post := func(body []byte, chunked bool) (int, []byte) {
		t.Helper()
		var rd io.Reader = bytes.NewReader(body)
		if chunked {
			rd = io.MultiReader(rd) // a reader of unknown length: the client sends it chunked
		}
		resp, err := http.Post(srv.URL+"/v1/paths", "application/json", rd)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		reply, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, reply
	}

	oversized := bytes.Repeat([]byte(" "), maxBatchBodyBytes+1)
	want := fmt.Sprintf("request body exceeds %d bytes", maxBatchBodyBytes)
	for _, chunked := range []bool{false, true} {
		code, reply := post(oversized, chunked)
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(reply, &e); code != http.StatusBadRequest || err != nil || e.Error != want {
			t.Errorf("a %d-byte body (chunked %v): %d %s, want 400 %q", len(oversized), chunked, code, reply, want)
		}
	}

	batch := []byte(fmt.Sprintf(`{"snap":1,"pairs":[{"src":%q,"dst":%q},{"src":%q,"dst":%q}]}`,
		sim.CityName(0), sim.CityName(1), sim.CityName(3), sim.CityName(2)))
	var results [2]batchRespJSON
	for i, chunked := range []bool{false, true} {
		code, reply := post(batch, chunked)
		if code != http.StatusOK {
			t.Fatalf("batch (chunked %v): %d %s", chunked, code, reply)
		}
		if err := json.Unmarshal(reply, &results[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(results[0].Results, results[1].Results) || len(results[1].Results) != 2 {
		t.Errorf("the chunked batch answered %+v, the sized one %+v", results[1].Results, results[0].Results)
	}
	mu.Lock()
	defer mu.Unlock()
	if wantLengths := []int64{int64(len(oversized)), -1, int64(len(batch)), -1}; !reflect.DeepEqual(lengths, wantLengths) {
		t.Errorf("requests arrived with Content-Length %v, want %v", lengths, wantLengths)
	}
}

// TestBatchPathsOracleCached pins the singleflight attach lifecycle: the
// first batch for a key builds and attaches the oracle, the second finds it.
func TestBatchPathsOracleCached(t *testing.T) {
	sim := serverSim(t)
	s := newTestServer(t, Config{})
	payload := []byte(fmt.Sprintf(`{"pairs":[{"src":%q,"dst":%q},{"src":%q,"dst":%q}]}`,
		sim.CityName(0), sim.CityName(1), sim.CityName(1), sim.CityName(3)))

	var first, second batchRespJSON
	if rec := postJSON(t, s.Handler(), "/v1/paths", payload, &first); rec.Code != http.StatusOK {
		t.Fatalf("first batch: %d\n%s", rec.Code, rec.Body.String())
	}
	if first.Oracle.Cached {
		t.Fatal("first batch claims a cached oracle on a cold server")
	}
	if rec := postJSON(t, s.Handler(), "/v1/paths", payload, &second); rec.Code != http.StatusOK {
		t.Fatalf("second batch: %d\n%s", rec.Code, rec.Body.String())
	}
	if !second.Oracle.Cached {
		t.Fatal("second batch rebuilt the oracle instead of finding the attachment")
	}
	if got := s.oracleBuilds.Value(); got != 1 {
		t.Fatalf("oracleBuilds = %d, want 1", got)
	}
	if first.Results[0].RTTMs != second.Results[0].RTTMs {
		t.Fatalf("cached oracle answered differently: %v then %v", first.Results[0].RTTMs, second.Results[0].RTTMs)
	}
	cs := s.cache.Stats()
	if cs.Attachments != 1 {
		t.Fatalf("cache recorded %d attachments, want 1", cs.Attachments)
	}
}

// TestBatchPathsFaulted runs a batch under a nonzero fault mask and checks
// the answers against the single-query endpoint under the same mask.
func TestBatchPathsFaulted(t *testing.T) {
	sim := serverSim(t)
	s := newTestServer(t, Config{})
	payload := []byte(fmt.Sprintf(`{"fault":"sat","fraction":0.2,"faultSeed":7,"pairs":[{"src":%q,"dst":%q}]}`,
		sim.CityName(0), sim.CityName(4)))
	var batch batchRespJSON
	if rec := postJSON(t, s.Handler(), "/v1/paths", payload, &batch); rec.Code != http.StatusOK {
		t.Fatalf("faulted batch: %d\n%s", rec.Code, rec.Body.String())
	}
	var single struct {
		Fault string `json:"fault"`
		Path  struct {
			Reachable bool    `json:"reachable"`
			RTTMs     float64 `json:"rttMs"`
		} `json:"path"`
	}
	url := q("/v1/path", "src", sim.CityName(0), "dst", sim.CityName(4),
		"fault", "sat", "fraction", "0.2", "fault-seed", "7")
	if rec := getJSON(t, s.Handler(), url, &single); rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d", url, rec.Code)
	}
	got := batch.Results[0]
	if got.Reachable != single.Path.Reachable || got.RTTMs != single.Path.RTTMs {
		t.Fatalf("faulted batch (%v, %.6f) != single (%v, %.6f)",
			got.Reachable, got.RTTMs, single.Path.Reachable, single.Path.RTTMs)
	}
}

// TestPrimeOraclesAttach checks the primer piggyback: with PrimeOracles set,
// every primed (snapshot, mode) key carries a valid oracle attachment, and
// single-path queries are then served off the oracle (oracleHits moves).
func TestPrimeOraclesAttach(t *testing.T) {
	sim := serverSim(t)
	s := newTestServer(t, Config{PrimeSnapshots: true, PrimeOracles: true})
	primed, err := s.primeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(s.times); primed != want {
		t.Fatalf("primed %d snapshots, want %d", primed, want)
	}
	if got := s.oracleBuilds.Value(); got != int64(primed) {
		t.Fatalf("oracleBuilds = %d, want one per primed snapshot (%d)", got, primed)
	}
	for _, mode := range []core.Mode{core.BP, core.Hybrid} {
		for _, ts := range s.times {
			aux, n, ok := s.cache.Attachment(snapSpec{t: ts, mode: mode})
			if !ok || n == nil {
				t.Fatalf("%s@%v: no attachment after oracle prime", mode, ts)
			}
			o, isOracle := aux.(*oracle.Oracle)
			if !isOracle || !o.Valid(n) {
				t.Fatalf("%s@%v: attachment is not a valid oracle for its network", mode, ts)
			}
		}
	}
	before := s.oracleHits.Value()
	url := q("/v1/path", "src", sim.CityName(0), "dst", sim.CityName(2), "snap", "0")
	if rec := getJSON(t, s.Handler(), url, nil); rec.Code != http.StatusOK {
		t.Fatalf("path after oracle prime: %d", rec.Code)
	}
	if s.oracleHits.Value() != before+1 {
		t.Fatalf("single query did not hit the primed oracle (hits %d → %d)", before, s.oracleHits.Value())
	}
}

// TestBatchRoutesOnlyAddRoute pins what includeRoutes changes: the route, and
// nothing else. The same 256 pairs asked both ways of a healthy, a
// sat-faulted and a fully failed snapshot give entry-for-entry equal
// reachable/rttMs/oneWayMs/hops; and only the batch that returns routes walks
// the oracle's trees — one oracle.Query per pair with, none without, where the
// answers are reads of the distance and hop tables.
func TestBatchRoutesOnlyAddRoute(t *testing.T) {
	queries := func() int64 {
		return telemetry.Enable().Histogram(telemetry.StageOracleQuery.String()).Count()
	}
	defer telemetry.Disable()
	sim := serverSim(t)
	s := newTestServer(t, Config{})
	const npairs = 256
	var pairs []string
	for src := 0; len(pairs) < npairs; src++ {
		for dst := 0; dst < sim.NumCities() && len(pairs) < npairs; dst += 7 {
			if src != dst {
				pairs = append(pairs, fmt.Sprintf(`{"src":%q,"dst":%q}`, sim.CityName(src), sim.CityName(dst)))
			}
		}
	}
	for _, snapshot := range []struct {
		name, selection string
		reachable       bool // whether any pair can be
	}{
		{"healthy", `"mode":"hybrid","snap":1`, true},
		{"sat-faulted", `"fault":"sat","fraction":0.3,"faultSeed":5`, true},
		{"fully failed", `"fault":"sat","fraction":1`, false},
	} {
		t.Run(snapshot.name, func(t *testing.T) {
			ask := func(includeRoutes bool) (batchRespJSON, int64) {
				payload := fmt.Sprintf(`{%s,"includeRoutes":%v,"pairs":[%s]}`,
					snapshot.selection, includeRoutes, strings.Join(pairs, ","))
				before := queries()
				var resp batchRespJSON
				if rec := postJSON(t, s.Handler(), "/v1/paths", []byte(payload), &resp); rec.Code != http.StatusOK {
					t.Fatalf("includeRoutes=%v: %d\n%s", includeRoutes, rec.Code, rec.Body.String())
				}
				if len(resp.Results) != npairs {
					t.Fatalf("includeRoutes=%v: %d results, want %d", includeRoutes, len(resp.Results), npairs)
				}
				return resp, queries() - before
			}
			bare, bareQueries := ask(false)
			routed, routedQueries := ask(true)
			if bareQueries != 0 || routedQueries != npairs {
				t.Errorf("oracle.Query ran %d times without routes and %d with, want 0 and %d", bareQueries, routedQueries, npairs)
			}
			reached := 0
			for i, b := range bare.Results {
				r := routed.Results[i]
				if b.Route != nil {
					t.Fatalf("entry %d: a route nobody asked for: %v", i, b.Route)
				}
				if b.Reachable {
					reached++
					if b.Hops == 0 || len(r.Route) != b.Hops+1 {
						t.Fatalf("entry %d: %d hops beside a route of %d nodes", i, b.Hops, len(r.Route))
					}
				}
				r.Route = nil
				if !reflect.DeepEqual(b, r) {
					t.Fatalf("entry %d differs beyond its route:\nwithout %+v\nwith    %+v", i, b, r)
				}
			}
			if (reached > 0) != snapshot.reachable {
				t.Errorf("%d of %d pairs reachable", reached, npairs)
			}
		})
	}
}

// FuzzBatchEntryJSON holds the results rows' writer to the encoder it stands
// in for: whatever the entry, appendJSON's bytes are json.MarshalIndent's for
// the same struct at the depth a response nests it — names that need
// escaping, every omitempty member present or absent, floats in both number
// forms, routes of any length. A route-less row of names that need no escaping
// also fits the reservation the handler makes for it.
func FuzzBatchEntryJSON(f *testing.F) {
	for _, e := range []batchPathEntry{
		{Src: "Tokyo", Dst: "Delhi", Reachable: true, RTTMs: 123.456, OneWayMs: 61.728, Hops: 7},
		{Src: "São Paulo", Dst: "Maceió"}, // unreachable: every omitempty member absent
		{Src: "A&B<c>", Dst: "quote\" backslash\\ tab\t nul\x00 bell\a bs\b ff\f nl\n cr\r del\x7f", Reachable: true, RTTMs: 1e-7, OneWayMs: 1e21, Hops: 1},
		{Src: "bad utf8 \xff\xfe \xe2\x80", Dst: "line\u2028sep para\u2029sep", Reachable: true, RTTMs: 5e-324, OneWayMs: math.MaxFloat64, Hops: math.MaxInt},
		{Src: "x", Dst: "y", Reachable: true, RTTMs: -1.2345678901234567e-6, OneWayMs: 999999999999999900000, Hops: math.MinInt},
		{Src: "x", Dst: "y", Reachable: true, RTTMs: math.Copysign(0, -1), OneWayMs: 1e-6, Hops: 65535, Route: []string{"x"}},
		{Src: "x", Dst: "y", Reachable: true, RTTMs: 2, OneWayMs: 1, Hops: 3, Route: []string{"x", "sat-12", "Zürich <relay>", "y"}},
		{Src: "x", Dst: "y", Route: []string{"", ""}},
	} {
		f.Add(e.Src, e.Dst, e.Reachable, e.RTTMs, e.OneWayMs, e.Hops, strings.Join(e.Route, "|"), len(e.Route))
	}
	f.Fuzz(func(t *testing.T, src, dst string, reachable bool, rtt, oneWay float64, hops int, route string, routeLen int) {
		e := batchPathEntry{Src: src, Dst: dst, Reachable: reachable, RTTMs: rtt, OneWayMs: oneWay, Hops: hops}
		if routeLen > 0 {
			e.Route = strings.Split(route, "|")
		}
		want, err := json.MarshalIndent(e, "    ", "  ")
		if err != nil {
			t.Skip(err) // a non-finite float: no answer carries one
		}
		prefix := []byte("[")
		got := e.appendJSON(prefix)
		if !bytes.Equal(got[:1], prefix) || !bytes.Equal(got[1:], want) {
			t.Fatalf("entry %+v\nappendJSON:    %s\nMarshalIndent: %s", e, got[1:], want)
		}
		plain := func(s string) bool { q, _ := json.Marshal(s); return len(q) == len(s)+2 }
		if len(e.Route) == 0 && plain(src) && plain(dst) {
			if row, reserved := len(",")+len(batchRowIndent)+len(want), batchRowReserve+len(src)+len(dst); row > reserved {
				t.Fatalf("a %d-byte row outgrows the %d reserved for it: %s", row, reserved, want)
			}
		}
	})
}

// batchDecodeSeeds are FuzzBatchPathsDecode's corpus: bodies a client
// writes, and every corner where encoding/json is lenient or strict in ways a
// hand-written parser could miss — escapes, raw and invalid UTF-8, keys in
// another case, repeated keys, null for each member, a byte-order mark, number
// forms an int or float64 member refuses or rounds, data after the object,
// and an error in the selection beside too many pairs (which must win).
var batchDecodeSeeds = []string{
	`{"pairs":[{"src":"A","dst":"B"}]}`,
	`{"mode":"hybrid","snap":1,"pairs":[{"src":"A","dst":"B"},{"src":"B","dst":"A"}]}`,
	`{"t":"90m","includeRoutes":true,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"fault":"sat","fraction":0.5,"faultSeed":3,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"pairs":[{"src":"A","dst":"A"}]}`,
	`{"pairs":[{"src":"A","dst":"B"},{"src":"A","dst":"B"}]}`,
	`{"pairs":[]}`,
	`{"snap":0,"t":"90m","pairs":[{"src":"A","dst":"B"}]}`,
	`{"pears":[{"src":"A","dst":"B"}]}`,
	`{"pairs":[{"src":"A","dst":"B"}]}trailing`,
	`{`,
	``,
	`[1,2,3]`,
	`{"mode":"warp","pairs":[{"src":"A","dst":"B"}]}`,
	`{"fraction":2,"fault":"sat","pairs":[{"src":"A","dst":"B"}]}`,
	// Every member, as a client writes them.
	`{"mode":"bp","snap":1,"includeRoutes":false,"pairs":[{"src":"São Paulo","dst":"Maceió"},{"dst":"Ürümqi","src":"Tokyo"}]}`,
	`{"mode":"bp","t":"2020-11-04T01:00:00Z","fault":"plane","fraction":1e-1,"faultSeed":-7,"includeRoutes":true,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"fault":"sat","fraction":0,"faultSeed":0,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"pairs":[{"src":"","dst":"B"}]}`,
	`{"pairs":[{"src":"A"}]}`,
	`{"pairs":[{}]}`,
	`{}`,
	// Escapes, raw non-ASCII, invalid UTF-8 and a lone surrogate.
	`{"pairs":[{"src":"A\"B","dst":"C\\D"}]}`,
	`{"pairs":[{"src":"Mace\u00f3","dst":"Maceió"}]}`,
	`{"pairs":[{"src":"\u0041","dst":"\/B"}]}`,
	`{"pairs":[{"src":"\ud800","dst":"\ud83d\ude00"}]}`,
	"{\"pairs\":[{\"src\":\"A\xff\",\"dst\":\"\xef\xbf\xbd\"}]}",
	"{\"pairs\":[{\"src\":\"\xed\xa0\x80\",\"dst\":\"B\"}]}",
	"{\"pairs\":[{\"src\":\"A\tB\",\"dst\":\"C\x7f\u2028\"}]}",
	`{"mo\u0064e":"bp","pairs":[{"src":"A","dst":"B"}]}`,
	// Keys in another case: encoding/json matches them case-insensitively.
	`{"Pairs":[{"src":"A","dst":"B"}]}`,
	`{"pairs":[{"SRC":"A","dst":"B"}]}`,
	`{"MODE":"hybrid","pairs":[{"src":"A","Dst":"B"}]}`,
	// Repeated keys: the last one wins.
	`{"mode":"bp","mode":"hybrid","pairs":[{"src":"A","dst":"B"}]}`,
	`{"snap":0,"snap":1,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"pairs":[{"src":"A","dst":"B"}],"pairs":[{"src":"C","dst":"D"},{"src":"E","dst":"F"}]}`,
	`{"pairs":[{"src":"A","src":"C","dst":"B"}]}`,
	// null for each member, for a pair and for a name.
	`{"mode":null,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"snap":null,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"t":null,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"fault":null,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"fault":"sat","fraction":null,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"fault":"sat","faultSeed":null,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"includeRoutes":null,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"pairs":null}`,
	`{"pairs":[null]}`,
	`{"pairs":[{"src":null,"dst":"B"}]}`,
	`null`,
	// A byte-order mark, and whitespace around and inside the object.
	"\xef\xbb\xbf{\"pairs\":[{\"src\":\"A\",\"dst\":\"B\"}]}",
	" \t\r\n{ \"pairs\" : [ { \"src\" : \"A\" , \"dst\" : \"B\" } ] } \n\t",
	"{\"pairs\":[{\"src\":\"A\",\"dst\":\"B\"}]}\f",
	// Number forms: an int member refuses a fraction or an exponent and a
	// value past its range; a float64 member rounds an underflow to 0 and
	// refuses an overflow; JSON refuses what strconv would take.
	`{"snap":1.0,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"snap":1e0,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"snap":-0,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"snap":9223372036854775808,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"snap":-9223372036854775809,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"snap":01,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"snap":+1,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"snap":"1","pairs":[{"src":"A","dst":"B"}]}`,
	`{"fault":"sat","faultSeed":9223372036854775807,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"fault":"sat","faultSeed":9223372036854775808,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"fault":"sat","faultSeed":1.5,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"fault":"sat","fraction":1e400,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"fault":"sat","fraction":1e-400,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"fault":"sat","fraction":-0,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"fault":"sat","fraction":0.25E+0,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"fault":"sat","fraction":.5,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"fault":"sat","fraction":1.,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"fault":"sat","fraction":1e,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"fault":"sat","fraction":0x1p-2,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"fault":"sat","fraction":NaN,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"includeRoutes":1,"pairs":[{"src":"A","dst":"B"}]}`,
	`{"includeRoutes":tru,"pairs":[{"src":"A","dst":"B"}]}`,
	// Data after the object: encoding/json's More stops at a closing bracket.
	`{"pairs":[{"src":"A","dst":"B"}]}{}`,
	`{"pairs":[{"src":"A","dst":"B"}]} }`,
	`{"pairs":[{"src":"A","dst":"B"}]}]`,
	`{"pairs":[{"src":"A","dst":"B"}],}`,
	`{"pairs":[{"src":"A","dst":"B"},]}`,
	`{"pairs":[{"src":"A","dst":"B"}]`,
	// Too many pairs beside a bad mode: the selection's error comes first.
	`{"mode":"warp","pairs":[` + strings.Repeat(`{"src":"A","dst":"B"},`, 16) + `{"src":"A","dst":"B"}]}`,
	`{"pairs":[` + strings.Repeat(`{"src":"A","dst":"B"},`, 16) + `{"src":"A","dst":"B"}]}`,
}

// jsonDecodeBatch is decodeBatchPaths with encoding/json as its only parser:
// the reference FuzzBatchPathsDecode holds the decoder to.
func jsonDecodeBatch(data []byte, maxPairs int, times []time.Time) (*batchPathsRequest, snapSpec, error) {
	req, err := decodeBatchJSON(data)
	if err != nil {
		return nil, snapSpec{}, err
	}
	spec, err := req.check(maxPairs, times)
	if err != nil {
		return nil, snapSpec{}, err
	}
	return req, spec, nil
}

// FuzzBatchPathsDecode fuzzes the pure batch-body decoder against
// encoding/json: on any byte string it gives what encoding/json's decode and
// the same validation give — a reflect.DeepEqual request (nil against empty
// pairs, the pointer members), an equal spec, the same error text. And what
// it accepts satisfies every documented invariant, while what it refuses is a
// *badRequestError — never a panic, never another error type.
func FuzzBatchPathsDecode(f *testing.F) {
	for _, s := range batchDecodeSeeds {
		f.Add([]byte(s))
	}
	const maxPairs = 16
	times := []time.Time{geo.Epoch, geo.Epoch.Add(time.Hour)}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, spec, err := decodeBatchPaths(data, maxPairs, times)
		wantReq, wantSpec, wantErr := jsonDecodeBatch(data, maxPairs, times)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("body %q\ndecodeBatchPaths: %v\nencoding/json:    %v", data, err, wantErr)
		}
		if !reflect.DeepEqual(req, wantReq) {
			t.Fatalf("body %q\ndecodeBatchPaths: %#v\nencoding/json:    %#v", data, req, wantReq)
		}
		if spec != wantSpec {
			t.Fatalf("body %q\ndecodeBatchPaths spec: %+v\nencoding/json spec:    %+v", data, spec, wantSpec)
		}
		if err != nil {
			var br *badRequestError
			if !errors.As(err, &br) {
				t.Fatalf("decode error is %T, want *badRequestError: %v", err, err)
			}
			if req != nil {
				t.Fatal("decode returned both a request and an error")
			}
			return
		}
		if req == nil {
			t.Fatal("decode returned neither request nor error")
		}
		switch req.Mode {
		case "", "bp", "hybrid":
		default:
			t.Fatalf("accepted mode %q", req.Mode)
		}
		if req.Snap != nil && req.T != "" {
			t.Fatal("accepted both snap and t")
		}
		if len(req.Pairs) == 0 || len(req.Pairs) > maxPairs {
			t.Fatalf("accepted %d pairs", len(req.Pairs))
		}
		seen := map[batchPair]bool{}
		for _, p := range req.Pairs {
			if p.Src == "" || p.Dst == "" || p.Src == p.Dst {
				t.Fatalf("accepted degenerate pair %+v", p)
			}
			if seen[p] {
				t.Fatalf("accepted duplicate pair %+v", p)
			}
			seen[p] = true
		}
		if req.Fault == "" && (req.Fraction != nil || req.FaultSeed != nil) {
			t.Fatal("accepted fraction/faultSeed without fault")
		}
		if req.Fraction != nil && (*req.Fraction < 0 || *req.Fraction > 1) {
			t.Fatalf("accepted fraction %v", *req.Fraction)
		}
		if spec.mode.String() != req.Mode && req.Mode != "" {
			t.Fatalf("mode %q resolved to %v", req.Mode, spec.mode)
		}
		if spec.t.Before(times[0]) && req.T == "" {
			t.Fatalf("snap %v resolved to %v, before the schedule", req.Snap, spec.t)
		}
		if string(spec.scenario) != req.Fault {
			t.Fatalf("fault %q validated as %q", req.Fault, spec.scenario)
		}
	})
}

// TestBatchScanMatchesJSON is the scanner's direct differential: on every
// fuzz seed it does not decline, and on a reduced-scale client body, its
// request is reflect.DeepEqual to encoding/json's. A body a client writes is
// not declined.
func TestBatchScanMatchesJSON(t *testing.T) {
	bodies := append([]string{string(reducedBatchBody(t))}, batchDecodeSeeds...)
	const written = 5 // the reduced body and the first four seeds, as clients write them
	scanned := 0
	for i, body := range bodies {
		got, ok := scanBatchPaths([]byte(body), 16)
		if !ok {
			if i < written {
				t.Errorf("the scanner declined a client's body %.80q", body)
			}
			continue
		}
		scanned++
		want, err := decodeBatchJSON([]byte(body))
		if err != nil {
			t.Errorf("body %q: scanned, but encoding/json refuses it: %v", body, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("body %q\nscanned:       %#v\nencoding/json: %#v", body, got, want)
		}
	}
	t.Logf("%d of %d bodies scanned, the rest declined", scanned, len(bodies))
}

// reducedBatchBody is a POST /v1/paths body as a client writes one against a
// reduced-scale server: a mode, a snapshot and 256 distinct pairs of the
// reduced city set's names, São Paulo's among them.
func reducedBatchBody(tb testing.TB) []byte {
	tb.Helper()
	cities, err := ground.Cities(core.ReducedScale().NumCities)
	if err != nil {
		tb.Fatal(err)
	}
	body := struct {
		Mode  string      `json:"mode"`
		Snap  int         `json:"snap"`
		Pairs []batchPair `json:"pairs"`
	}{Mode: "hybrid", Snap: 1}
	for src := 0; len(body.Pairs) < 256; src++ {
		for dst := 0; dst < len(cities) && len(body.Pairs) < 256; dst += 7 {
			if src != dst {
				body.Pairs = append(body.Pairs, batchPair{Src: cities[src].Name, Dst: cities[dst].Name})
			}
		}
	}
	data, err := json.Marshal(body)
	if err != nil {
		tb.Fatal(err)
	}
	if !bytes.Contains(data, []byte("São Paulo")) {
		tb.Fatal("the body names no city outside ASCII")
	}
	return data
}

// reducedTimes is a reduced-scale schedule: 12 hourly snapshots.
func reducedTimes() []time.Time {
	times := make([]time.Time, core.ReducedScale().NumSnapshots)
	for i := range times {
		times[i] = geo.Epoch.Add(time.Duration(i) * time.Hour)
	}
	return times
}

// batchDecodeAllocBudget bounds the allocations of decoding and validating a
// 256-pair body: the body's one string, the request, the snapshot index and
// the pairs — none per pair, none for the mode's name, and none for the
// duplicate check, whose table is on the stack up to 256 pairs.
const batchDecodeAllocBudget = 4

// TestPairChecksInOrder holds check's per-pair validation to the loop it
// replaces — one map of the pairs seen so far, each pair checked in order
// for a missing name, then src equal to dst, then a repeat — on random pair
// lists, some past the 256 pairs firstRepeat keeps on the stack: the same
// first refusal, by the same text, or none.
func TestPairChecksInOrder(t *testing.T) {
	reference := func(pairs []batchPair) error {
		seen := map[batchPair]bool{}
		for i, p := range pairs {
			switch {
			case p.Src == "" || p.Dst == "":
				return badRequest("pairs[%d]: src and dst are required", i)
			case p.Src == p.Dst:
				return badRequest("pairs[%d]: src equals dst (%q)", i, p.Src)
			case seen[p]:
				return badRequest("pairs[%d]: duplicate pair %q → %q", i, p.Src, p.Dst)
			}
			seen[p] = true
		}
		return nil
	}
	r := rand.New(rand.NewSource(5))
	names := []string{"", "Tokyo", "Delhi", "Paris", "Lima", "Cairo", "Oslo", "Perth"}
	for trial := 0; trial < 2000; trial++ {
		size := 1 + r.Intn([]int{4, 40, 300}[trial%3])
		pairs := make([]batchPair, size)
		for i := range pairs {
			// Mostly distinct pairs of long names, now and then a short
			// one, an empty one or one equal to its partner.
			pairs[i] = batchPair{Src: fmt.Sprintf("s%d", r.Intn(4*size)), Dst: fmt.Sprintf("d%d", r.Intn(4*size))}
			if r.Intn(size) == 0 {
				pairs[i] = batchPair{Src: names[r.Intn(len(names))], Dst: names[r.Intn(len(names))]}
			}
		}
		req := batchPathsRequest{Pairs: pairs}
		_, err := req.check(MaxBatchPairs, reducedTimes())
		want := reference(pairs)
		if fmt.Sprint(err) != fmt.Sprint(want) {
			t.Fatalf("trial %d (%d pairs): check says %v, the in-order loop %v", trial, size, err, want)
		}
	}
}

// TestBatchDecodeAllocBudget pins that a batch body is scanned, not reflected
// over: its allocations do not grow with the pairs it carries.
func TestBatchDecodeAllocBudget(t *testing.T) {
	body, times := reducedBatchBody(t), reducedTimes()
	req, _, err := decodeBatchPaths(body, MaxBatchPairs, times)
	if err != nil || len(req.Pairs) != 256 {
		t.Fatalf("decode: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		decodeBatchPaths(body, MaxBatchPairs, times) //nolint:errcheck // decoded once above
	})
	t.Logf("a 256-pair, %d-byte body decodes in %.0f allocations", len(body), allocs)
	if allocs > batchDecodeAllocBudget {
		t.Errorf("a 256-pair body decodes in %.0f allocations, budget %d", allocs, batchDecodeAllocBudget)
	}
}

// BenchmarkBatchDecode decodes and validates the 256-pair body of
// TestBatchDecodeAllocBudget.
func BenchmarkBatchDecode(b *testing.B) {
	body, times := reducedBatchBody(b), reducedTimes()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := decodeBatchPaths(body, MaxBatchPairs, times); err != nil {
			b.Fatal(err)
		}
	}
}
