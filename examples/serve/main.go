// Serve example: run the constellation query service in-process and hammer
// it with concurrent clients, the workload the snapshot cache exists for.
// Clients fire path queries for a handful of recurring city pairs spread
// over a few snapshots and both connectivity modes; the cache statistics
// afterwards show that only one graph build ran per distinct (mode,
// snapshot) even though every snapshot was requested dozens of times. A
// repeat pass then verifies that answers are stable across cache hits.
//
// The client retries like a production one: exponential backoff with full
// jitter, honouring Retry-After (429 back-pressure and 503 breaker
// rejections) as a floor. That makes it double as the chaos-smoke driver:
// pointed at an external server built with injected build failures
// (-addr, see scripts/chaos_smoke.sh), it reports its success rate and
// exits non-zero below -min-success.
//
// For load generation — Zipf pairs, POST /v1/paths batches, client latency
// percentiles and answers/s, reproducibly — use the benchmark:
// go run -C bench leosim/bench --workload serve-paths
//
//	go run ./examples/serve
//	go run ./examples/serve -addr 127.0.0.1:8080 -requests 192 -min-success 0.95
package main

import (
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
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"leosim"
	"leosim/internal/server"
)

// maxTries bounds the retry loop; with backoff doubling from 100ms this
// spends about 6s worst-case on one unlucky query before giving up.
const maxTries = 6

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
	ok, failed, shed, retried, degraded atomic.Int64
}

func main() {
	addr := flag.String("addr", "", "query an already-running server at this address instead of starting one in-process (its -scale must be tiny)")
	requests := flag.Int("requests", 96, "number of path queries to issue")
	clients := flag.Int("clients", 24, "concurrent client goroutines")
	minSuccess := flag.Float64("min-success", 1.0, "exit non-zero if the answered fraction falls below this")
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
	// Pairs cycle over the most populous cities, distinct endpoints always.
	// The query list is materialized up front, deterministically, so the
	// sequential repeat pass can replay it bit for bit.
	hot := min(sim.NumCities(), 8)
	type query struct{ src, dst, mode, snap string }
	queries := make([]query, 0, *requests)
	for i := 0; i < *requests; i++ {
		src := i % hot
		dst := (src + 1 + (i/hot)%(hot-1)) % hot
		mode := []string{"bp", "hybrid"}[i%2]
		snap := fmt.Sprint(i % nsnap)
		queries = append(queries, query{sim.CityName(src), sim.CityName(dst), mode, snap})
	}

	var tl tally
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
			Degraded string `json:"degraded"`
			Path     struct {
				Reachable bool    `json:"reachable"`
				RTTMs     float64 `json:"rttMs"`
			} `json:"path"`
		}
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
				if body.Degraded != "" {
					tl.degraded.Add(1)
					noteDegraded(resp.Header.Get("X-Trace-Id"))
				}
				tl.ok.Add(1)
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

	answers := sync.Map{} // query key → RTT from the concurrent pass
	var wg sync.WaitGroup
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
	wg.Wait()

	if srv != nil {
		st := srv.CacheStats()
		fmt.Printf("after %d queries from %d clients: %d graph builds, %d cache hits (%.0f%% hit rate)\n",
			len(queries), *clients, st.Builds, st.Hits, st.HitRate()*100)
	}
	rate := float64(tl.ok.Load()) / float64(len(queries))
	fmt.Printf("answered %d/%d (%.1f%%): %d shed+retried, %d 5xx+retried, %d degraded, %d gave up\n",
		tl.ok.Load(), len(queries), rate*100, tl.shed.Load(), tl.retried.Load(),
		tl.degraded.Load(), tl.failed.Load())
	if degradedTrace != "" {
		fmt.Printf("first degraded answer trace: %s (join it against GET /debug/events)\n", degradedTrace)
	}

	// Repeat pass, sequentially: every answer must match the concurrent run
	// bit for bit — cached and freshly-built snapshots are interchangeable.
	mismatches := 0
	for _, q := range queries {
		rtt, answered, reachable := get(q)
		if !answered || !reachable {
			continue
		}
		key := fmt.Sprintf("%s→%s/%s@%s", q.src, q.dst, q.mode, q.snap)
		if prev, seen := answers.Load(key); seen && prev.(float64) != rtt {
			fmt.Printf("MISMATCH %s: %.3f ms then %.3f ms\n", key, prev.(float64), rtt)
			mismatches++
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
