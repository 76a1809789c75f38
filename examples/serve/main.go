// Serve example: run the constellation query service in-process and hammer
// it with concurrent clients, the workload the snapshot cache exists for.
// Clients fire path queries for Zipf-distributed city pairs (heavy-tailed
// toward the most populous cities, like real traffic matrices) spread over
// a handful of snapshots and both connectivity modes; the cache statistics
// afterwards show that only one graph build ran per distinct (mode,
// snapshot) even though every snapshot was requested dozens of times. A
// repeat pass then verifies that answers are stable across cache hits, and
// the run closes with client-observed latency percentiles and achieved QPS.
//
// The client retries like a production one: exponential backoff with full
// jitter, honouring Retry-After (429 back-pressure and 503 breaker
// rejections) as a floor. That makes it double as the chaos-smoke driver:
// pointed at an external server built with injected build failures
// (-addr, see scripts/chaos_smoke.sh), it reports its success rate and
// exits non-zero below -min-success.
//
//	go run ./examples/serve
//	go run ./examples/serve -addr 127.0.0.1:8080 -requests 192 -min-success 0.95
//	go run ./examples/serve -batch 64 -requests 2048   # POST /v1/paths batches
//	go run ./examples/serve -pairs-file pairs.txt      # replay a fixed pair list
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"leosim"
	"leosim/internal/server"
)

// maxTries bounds the retry loop; with backoff doubling from 100ms this
// spends about 6s worst-case on one unlucky query before giving up.
const maxTries = 6

// zipfS and zipfV shape the city-pair popularity curve: s≈1.1 is the
// classic web-traffic exponent, v=2 softens the head so the top city does
// not swallow the whole draw.
const (
	zipfS = 1.1
	zipfV = 2
)

// backoff returns the wait before retry attempt (0-based): exponential with
// full jitter on the upper half, floored by the server's Retry-After hint.
func backoff(attempt int, retryAfter string) time.Duration {
	d := time.Duration(100<<attempt) * time.Millisecond
	if ra, err := strconv.Atoi(retryAfter); err == nil && ra > 0 {
		if hint := time.Duration(ra) * time.Second; hint > d {
			d = hint
		}
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)/2+1))
}

type tally struct {
	ok, failed, shed, retried, stale, degraded atomic.Int64
}

// pairName is one requested city pair, by name.
type pairName struct{ src, dst string }

// loadPairs reads a pairs file: one "Src,Dst" pair per line, blank lines
// and #-comments skipped. Every name must resolve in the sim.
func loadPairs(path string, find func(string) bool) ([]pairName, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []pairName
	sc := bufio.NewScanner(f)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		src, dst, ok := strings.Cut(line, ",")
		src, dst = strings.TrimSpace(src), strings.TrimSpace(dst)
		if !ok || src == "" || dst == "" || src == dst {
			return nil, fmt.Errorf("%s:%d: want \"Src,Dst\" with distinct names, got %q", path, ln, line)
		}
		for _, name := range []string{src, dst} {
			if !find(name) {
				return nil, fmt.Errorf("%s:%d: unknown city %q", path, ln, name)
			}
		}
		out = append(out, pairName{src, dst})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no pairs", path)
	}
	return out, nil
}

// zipfPairs draws n distinct-endpoint city pairs with Zipf-distributed
// popularity over the population rank (cities are sorted most-populous
// first, so rank == index). Deterministic for a given seed.
func zipfPairs(n, ncity int, seed int64) [][2]int {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, zipfS, zipfV, uint64(ncity-1))
	out := make([][2]int, 0, n)
	for len(out) < n {
		s, d := int(z.Uint64()), int(z.Uint64())
		if s == d {
			continue
		}
		out = append(out, [2]int{s, d})
	}
	return out
}

// percentile returns the pth percentile (0–100) of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p / 100 * float64(len(sorted)-1))
	return sorted[i]
}

func main() {
	addr := flag.String("addr", "", "query an already-running server at this address instead of starting one in-process (its -scale must be tiny)")
	requests := flag.Int("requests", 96, "number of path queries to issue")
	clients := flag.Int("clients", 24, "concurrent client goroutines")
	minSuccess := flag.Float64("min-success", 1.0, "exit non-zero if the answered fraction falls below this")
	pairsFile := flag.String("pairs-file", "", "replay city pairs from this file (\"Src,Dst\" per line) instead of drawing Zipf pairs")
	batch := flag.Int("batch", 0, "batch size for POST /v1/paths (0 = one GET /v1/path per query)")
	seed := flag.Int64("seed", 1, "Zipf pair-draw seed (same seed, same workload)")
	flag.Parse()

	// The sim is always built locally: it is the source of the city names the
	// queries use (and, in-process, the server itself). External servers must
	// therefore run the same tiny scale.
	scale := leosim.TinyScale()
	sim, err := leosim.NewSim(leosim.Starlink, scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sim)

	var srv *server.Server
	var serveDone chan error
	var stop context.CancelFunc
	base := "http://" + *addr
	if *addr == "" {
		srv, err = server.New(server.Config{Sim: sim})
		if err != nil {
			log.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		var ctx context.Context
		ctx, stop = context.WithCancel(context.Background())
		serveDone = make(chan error, 1)
		go func() { serveDone <- srv.Serve(ctx, ln) }()
		base = "http://" + ln.Addr().String()
	}
	fmt.Println("querying", base)

	// The workload: -pairs-file replays a fixed list; otherwise pairs are
	// drawn Zipf over the population ranking, so a few hot pairs dominate —
	// exactly the skew a batch oracle and a snapshot cache exploit. Either
	// way the full query list is materialized up front, deterministically, so
	// the sequential repeat pass can replay it bit for bit.
	var pairs []pairName
	if *pairsFile != "" {
		pairs, err = loadPairs(*pairsFile, func(name string) bool {
			_, ok := sim.FindCity(name)
			return ok
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("replaying %d pairs from %s\n", len(pairs), *pairsFile)
	} else {
		ranked := zipfPairs(*requests, sim.NumCities(), *seed)
		pairs = make([]pairName, len(ranked))
		for i, p := range ranked {
			pairs[i] = pairName{sim.CityName(p[0]), sim.CityName(p[1])}
		}
		fmt.Printf("drew %d Zipf city pairs (s=%.1f, seed=%d)\n", len(pairs), zipfS, *seed)
	}

	// Every query pins one of a few (pair, mode, snapshot) combinations —
	// many more queries than distinct snapshots, so most requests must be
	// served from the shared cache. The server decides how many snapshots
	// exist (-snapshots), so ask it rather than assume; spread over at most
	// three to keep the per-snapshot hit density high.
	nsnap := 3
	for attempt := 0; attempt < 10; attempt++ {
		resp, err := http.Get(base + "/v1/snapshots")
		if err != nil {
			time.Sleep(100 * time.Millisecond)
			continue
		}
		var meta struct {
			Times []string `json:"times"`
		}
		err = json.NewDecoder(resp.Body).Decode(&meta)
		resp.Body.Close()
		if err == nil && len(meta.Times) > 0 {
			nsnap = min(nsnap, len(meta.Times))
			break
		}
	}
	type query struct{ src, dst, mode, snap string }
	queries := make([]query, 0, *requests)
	for i := 0; i < *requests; i++ {
		p := pairs[i%len(pairs)]
		mode := []string{"bp", "hybrid"}[i%2]
		snap := fmt.Sprint(i % nsnap)
		queries = append(queries, query{p.src, p.dst, mode, snap})
	}

	var tl tally
	// Client-observed latency per successful request (retries included) —
	// the number a real caller feels, reported as percentiles at the end.
	var latMu sync.Mutex
	var latencies []time.Duration
	recordLatency := func(d time.Duration) {
		latMu.Lock()
		latencies = append(latencies, d)
		latMu.Unlock()
	}
	// Every response carries an X-Trace-Id; for degraded answers and 5xx it
	// is the join key into the server's /debug/events flight recorder, so the
	// smoke run prints one for the operator to chase.
	var traceMu sync.Mutex
	var degradedTrace string
	noteDegraded := func(tid string) {
		if tid == "" {
			return
		}
		traceMu.Lock()
		if degradedTrace == "" {
			degradedTrace = tid
		}
		traceMu.Unlock()
	}
	// get answers one query, retrying transient failures (429 back-pressure,
	// injected 5xx, truncated bodies) under backoff. The second result
	// reports whether an answer was obtained at all.
	get := func(q query) (rtt float64, answered, reachable bool) {
		v := url.Values{}
		v.Set("src", q.src)
		v.Set("dst", q.dst)
		v.Set("mode", q.mode)
		v.Set("snap", q.snap)
		var body struct {
			Stale    bool   `json:"stale"`
			Degraded string `json:"degraded"`
			Path     struct {
				Reachable bool    `json:"reachable"`
				RTTMs     float64 `json:"rttMs"`
			} `json:"path"`
		}
		start := time.Now()
		for attempt := 0; attempt < maxTries; attempt++ {
			resp, err := http.Get(base + "/v1/path?" + v.Encode())
			if err != nil {
				log.Fatal(err) // transport failure: the server is gone, not degraded
			}
			switch {
			case resp.StatusCode == http.StatusOK:
				// Decode per response: a truncated or interleaved body is a
				// server bug backoff must not paper over.
				err := json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if err != nil {
					log.Fatalf("GET /v1/path: truncated or invalid JSON body: %v", err)
				}
				if body.Stale {
					tl.stale.Add(1)
				}
				if body.Degraded != "" {
					tl.degraded.Add(1)
					noteDegraded(resp.Header.Get("X-Trace-Id"))
				}
				tl.ok.Add(1)
				recordLatency(time.Since(start))
				return body.Path.RTTMs, true, body.Path.Reachable
			case resp.StatusCode == http.StatusTooManyRequests:
				tl.shed.Add(1)
			case resp.StatusCode >= 500:
				tl.retried.Add(1)
				if tid := resp.Header.Get("X-Trace-Id"); tid != "" {
					log.Printf("status %d trace=%s (see /debug/events), retrying", resp.StatusCode, tid)
				}
			default:
				log.Fatalf("GET /v1/path: unexpected status %d", resp.StatusCode)
			}
			ra := resp.Header.Get("Retry-After")
			resp.Body.Close()
			time.Sleep(backoff(attempt, ra))
		}
		tl.failed.Add(1)
		return 0, false, false
	}

	// Batch mode groups the query list by (mode, snapshot), dedups pairs
	// within each group (the batch endpoint rejects duplicates — the Zipf
	// skew guarantees them), and POSTs chunks of -batch pairs. Answers land
	// under the same per-query keys the single-query path uses, so the
	// repeat-pass comparison is identical in both modes.
	type batchJob struct {
		mode, snap string
		pairs      []pairName
	}
	var jobs []batchJob
	if *batch > 0 {
		group := map[string]*batchJob{}
		var order []string
		seen := map[string]map[pairName]bool{}
		for _, q := range queries {
			gk := q.mode + "@" + q.snap
			if group[gk] == nil {
				group[gk] = &batchJob{mode: q.mode, snap: q.snap}
				seen[gk] = map[pairName]bool{}
				order = append(order, gk)
			}
			p := pairName{q.src, q.dst}
			if !seen[gk][p] {
				seen[gk][p] = true
				group[gk].pairs = append(group[gk].pairs, p)
			}
		}
		for _, gk := range order {
			g := group[gk]
			for off := 0; off < len(g.pairs); off += *batch {
				end := min(off+*batch, len(g.pairs))
				jobs = append(jobs, batchJob{mode: g.mode, snap: g.snap, pairs: g.pairs[off:end]})
			}
		}
	}
	var oracleOnce sync.Once
	// post answers one batch job, with the same retry discipline as get.
	// Results are keyed like the single-query pass so both feed one answers
	// map.
	post := func(job batchJob, record func(key string, rtt float64)) (answered int) {
		snap, _ := strconv.Atoi(job.snap)
		reqBody := map[string]any{"mode": job.mode, "snap": snap, "pairs": []map[string]string{}}
		bp := make([]map[string]string, 0, len(job.pairs))
		for _, p := range job.pairs {
			bp = append(bp, map[string]string{"src": p.src, "dst": p.dst})
		}
		reqBody["pairs"] = bp
		payload, err := json.Marshal(reqBody)
		if err != nil {
			log.Fatal(err)
		}
		var body struct {
			Stale    bool   `json:"stale"`
			Degraded string `json:"degraded"`
			Oracle   struct {
				Cached  bool    `json:"cached"`
				BuildMs float64 `json:"buildMs"`
				Sources int     `json:"sources"`
			} `json:"oracle"`
			Results []struct {
				Src       string  `json:"src"`
				Dst       string  `json:"dst"`
				Reachable bool    `json:"reachable"`
				RTTMs     float64 `json:"rttMs"`
			} `json:"results"`
		}
		start := time.Now()
		for attempt := 0; attempt < maxTries; attempt++ {
			resp, err := http.Post(base+"/v1/paths", "application/json", bytes.NewReader(payload))
			if err != nil {
				log.Fatal(err)
			}
			switch {
			case resp.StatusCode == http.StatusOK:
				err := json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if err != nil {
					log.Fatalf("POST /v1/paths: truncated or invalid JSON body: %v", err)
				}
				if body.Stale {
					tl.stale.Add(1)
				}
				if body.Degraded != "" {
					tl.degraded.Add(1)
					noteDegraded(resp.Header.Get("X-Trace-Id"))
				}
				oracleOnce.Do(func() {
					fmt.Printf("oracle: cached=%v buildMs=%.1f sources=%d\n",
						body.Oracle.Cached, body.Oracle.BuildMs, body.Oracle.Sources)
				})
				recordLatency(time.Since(start))
				for _, r := range body.Results {
					tl.ok.Add(1)
					answered++
					if r.Reachable && record != nil {
						record(fmt.Sprintf("%s→%s/%s@%s", r.Src, r.Dst, job.mode, job.snap), r.RTTMs)
					}
				}
				return answered
			case resp.StatusCode == http.StatusTooManyRequests:
				tl.shed.Add(1)
			case resp.StatusCode >= 500:
				tl.retried.Add(1)
				if tid := resp.Header.Get("X-Trace-Id"); tid != "" {
					log.Printf("status %d trace=%s (see /debug/events), retrying", resp.StatusCode, tid)
				}
			default:
				log.Fatalf("POST /v1/paths: unexpected status %d", resp.StatusCode)
			}
			ra := resp.Header.Get("Retry-After")
			resp.Body.Close()
			time.Sleep(backoff(attempt, ra))
		}
		tl.failed.Add(int64(len(job.pairs)))
		return 0
	}

	answers := sync.Map{} // query key → RTT from the concurrent pass
	var totalIssued int
	passStart := time.Now()
	var wg sync.WaitGroup
	if *batch > 0 {
		totalIssued = 0
		for _, j := range jobs {
			totalIssued += len(j.pairs)
		}
		for c := 0; c < *clients; c++ {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := c; i < len(jobs); i += *clients {
					post(jobs[i], func(key string, rtt float64) { answers.Store(key, rtt) })
				}
			}()
		}
	} else {
		totalIssued = len(queries)
		for c := 0; c < *clients; c++ {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := c; i < len(queries); i += *clients {
					q := queries[i]
					if rtt, answered, reachable := get(q); answered && reachable {
						answers.Store(fmt.Sprintf("%s→%s/%s@%s", q.src, q.dst, q.mode, q.snap), rtt)
					}
				}
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(passStart)

	if srv != nil {
		st := srv.CacheStats()
		fmt.Printf("after %d queries from %d clients: %d graph builds, %d cache hits (%.0f%% hit rate)\n",
			totalIssued, *clients, st.Builds, st.Hits, st.HitRate()*100)
	}
	rate := float64(tl.ok.Load()) / float64(totalIssued)
	fmt.Printf("answered %d/%d (%.1f%%): %d shed+retried, %d 5xx+retried, %d stale, %d degraded, %d gave up\n",
		tl.ok.Load(), totalIssued, rate*100, tl.shed.Load(), tl.retried.Load(),
		tl.stale.Load(), tl.degraded.Load(), tl.failed.Load())
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if len(latencies) > 0 && elapsed > 0 {
		fmt.Printf("latency p50=%v p90=%v p99=%v; %.0f answers/s over %v\n",
			percentile(latencies, 50).Round(time.Microsecond),
			percentile(latencies, 90).Round(time.Microsecond),
			percentile(latencies, 99).Round(time.Microsecond),
			float64(tl.ok.Load())/elapsed.Seconds(), elapsed.Round(time.Millisecond))
	}
	if degradedTrace != "" {
		fmt.Printf("first degraded answer trace: %s (join it against GET /debug/events)\n", degradedTrace)
	}

	// Repeat pass, sequentially: every answer must match the concurrent run
	// bit for bit — cached and freshly-built snapshots are interchangeable,
	// and oracle-served batch answers are stable across requests.
	mismatches := 0
	check := func(key string, rtt float64) {
		if prev, seen := answers.Load(key); seen && prev.(float64) != rtt {
			fmt.Printf("MISMATCH %s: %.3f ms then %.3f ms\n", key, prev.(float64), rtt)
			mismatches++
		}
	}
	if *batch > 0 {
		for _, j := range jobs {
			post(j, check)
		}
	} else {
		for _, q := range queries {
			rtt, answered, reachable := get(q)
			if answered && reachable {
				check(fmt.Sprintf("%s→%s/%s@%s", q.src, q.dst, q.mode, q.snap), rtt)
			}
		}
	}
	if mismatches == 0 {
		fmt.Println("repeat pass: every cached answer identical to the first run")
	}

	if srv != nil {
		stop()
		if err := <-serveDone; err != nil {
			log.Fatal(err)
		}
		fmt.Println("drained cleanly")
	}
	if mismatches > 0 {
		os.Exit(1)
	}
	if rate < *minSuccess {
		fmt.Printf("success rate %.3f below -min-success %.3f\n", rate, *minSuccess)
		os.Exit(1)
	}
}
