package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"leosim/internal/core"
	"leosim/internal/server"
	"leosim/internal/stats"
)

// served is an in-process server on a loopback listener.
type served struct {
	srv    *server.Server
	base   string
	primeS float64 // Serve start → every snapshot primed and oracle-attached
	cancel context.CancelFunc
	done   chan error
	once   sync.Once
	err    error
}

// startServer boots the server the way `leosim serve -prime -oracle` does —
// default cache size and MaxInFlight, the CLI's text log handler at info
// (to io.Discard, so the per-request log line is formatted and paid for) —
// and waits until the primer has attached an oracle to every snapshot of
// both modes. Priming only runs inside Serve, hence a real listener.
func startServer(ctx context.Context, sim *core.Sim) (*served, error) {
	srv, err := server.New(server.Config{
		Sim:            sim,
		PrimeSnapshots: true,
		PrimeOracles:   true,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &served{srv: srv, base: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	start := time.Now()
	go func() { s.done <- srv.Serve(sctx, ln) }()
	want := int64(2 * sim.Scale.NumSnapshots)
	for srv.CacheStats().Attachments < want {
		select {
		case err := <-s.done:
			cancel()
			return nil, fmt.Errorf("server stopped while priming: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	s.primeS = time.Since(start).Seconds()
	return s, nil
}

// stop drains the server and waits for Serve to return; later calls return
// the first call's error.
func (s *served) stop() error {
	s.once.Do(func() {
		s.cancel()
		s.err = <-s.done
	})
	return s.err
}

// serverCounters are the server-side counts a traced run brackets the
// measured phase with.
type serverCounters struct {
	requests, oracleHits, shed, errors5xx float64
	hits, misses, builds, evictions       float64
}

// readCounters scrapes GET /metrics (request counters) and CacheStats.
func (s *served) readCounters(cl *http.Client) (serverCounters, error) {
	resp, err := cl.Get(s.base + "/metrics")
	if err != nil {
		return serverCounters{}, err
	}
	defer resp.Body.Close()
	var m struct {
		Server struct {
			Counters map[string]float64 `json:"counters"`
		} `json:"server"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return serverCounters{}, fmt.Errorf("decoding /metrics: %w", err)
	}
	c := m.Server.Counters
	cs := s.srv.CacheStats()
	return serverCounters{
		requests: c["requests"], oracleHits: c["oracleHits"], shed: c["shed429"],
		errors5xx: c["internalErrors"] + c["timeouts"] + c["breakerRejects"],
		hits:      float64(cs.Hits), misses: float64(cs.Misses),
		builds: float64(cs.Builds), evictions: float64(cs.Evictions),
	}, nil
}

// newClient returns the one shared Transport: each closed-loop client keeps
// one connection alive on it.
func newClient(clients int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
	}}
}

// sample is one completed request as its client saw it.
type sample struct {
	latNs, doneNs int64 // round-trip time; completion time since phase start
	answers       int
	bytes         int
}

// loadResult is what one timed phase of closed-loop load produced.
type loadResult struct {
	samples  []sample
	wallS    float64
	failures []string
	failed   int
}

// batchReply holds the fields of a POST /v1/paths reply that verification
// reads; a GET /v1/path reply decodes into pathResponse.
type batchReply struct {
	Count   int `json:"count"`
	Results []struct {
		Reachable bool    `json:"reachable"`
		RTTMs     float64 `json:"rttMs"`
	} `json:"results"`
}

// verify compares the answers o marks against the reference, tolerance 0.
func verify(o *op, body []byte, ref map[query]answer) error {
	var got []answer // indexed like a batch's results; a single answer is got[0]
	if o.post {
		var r batchReply
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("decoding batch reply: %w", err)
		}
		if r.Count != o.answers || len(r.Results) != o.answers {
			return fmt.Errorf("batch answered %d/%d pairs, asked %d", r.Count, len(r.Results), o.answers)
		}
		for _, x := range r.Results {
			got = append(got, answer{reachable: x.Reachable, rttMs: x.RTTMs})
		}
	} else {
		var r pathResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("decoding path reply: %w", err)
		}
		if r.Path == nil {
			return fmt.Errorf("path reply has no path")
		}
		got = []answer{{reachable: r.Path.Reachable, rttMs: r.Path.RTTMs}}
	}
	for _, e := range o.expects {
		if a, want := got[max(e.index, 0)], ref[e.q]; a != want {
			return fmt.Errorf("answer for %+v: got %+v, reference %+v", e.q, a, want)
		}
	}
	return nil
}

// absolutize returns the lists with every URL prefixed by the server's base.
func absolutize(lists [][]op, base string) [][]op {
	out := make([][]op, len(lists))
	for c, list := range lists {
		out[c] = make([]op, len(list))
		for i, o := range list {
			o.url = base + o.url
			out[c][i] = o
		}
	}
	return out
}

// runLoad drives one closed-loop client per list for dur: each client sends
// its next request only after the previous reply is fully read; a nil ref
// skips answer verification. Every
// sampleEvery-th operation of a client is traced (client.request →
// roundtrip / read_body / verify) when tr is non-nil.
func runLoad(cl *http.Client, lists [][]op, ref map[query]answer, dur time.Duration, tr *tracer) loadResult {
	const sampleEvery = 16
	var (
		mu  sync.Mutex
		out loadResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(dur)
	for c, list := range lists {
		wg.Add(1)
		go func(c int, list []op) {
			defer wg.Done()
			var (
				samples  []sample
				failures []string
				failed   int
				buf      bytes.Buffer
			)
			for i := 0; time.Now().Before(deadline); i++ {
				o := &list[i%len(list)]
				var t *tracer
				if i%sampleEvery == 0 {
					t = tr
				}
				opID := int64(c)<<32 | int64(i)
				root := t.begin("client.request", opID, 0, -1)
				t0 := time.Now()
				err := doOp(cl, o, &buf, t, opID, root)
				lat := time.Since(t0)
				if err == nil && ref != nil && len(o.expects) > 0 {
					sp := t.begin("client.verify", opID, 0, root)
					err = verify(o, buf.Bytes(), ref)
					t.end(sp)
				}
				t.end(root)
				if err != nil {
					failed++
					if len(failures) < 4 {
						failures = append(failures, fmt.Sprintf("%s: %v", o.url, err))
					}
					continue
				}
				samples = append(samples, sample{
					latNs: int64(lat), doneNs: int64(time.Since(start)),
					answers: o.answers, bytes: buf.Len(),
				})
			}
			mu.Lock()
			out.samples = append(out.samples, samples...)
			out.failures = append(out.failures, failures...)
			out.failed += failed
			mu.Unlock()
		}(c, list)
	}
	wg.Wait()
	out.wallS = time.Since(start).Seconds()
	return out
}

// doOp sends one request and reads the whole reply into buf.
func doOp(cl *http.Client, o *op, buf *bytes.Buffer, t *tracer, opID int64, root int32) error {
	method, body := http.MethodGet, io.Reader(nil)
	if o.post {
		method, body = http.MethodPost, bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(method, o.url, body)
	if err != nil {
		return err
	}
	if o.post {
		req.Header.Set("Content-Type", "application/json")
	}
	sp := t.begin("client.roundtrip", opID, 0, root)
	resp, err := cl.Do(req)
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("client.read_body", opID, 0, root)
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	t.end(sp)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return nil
}

// latenciesMs returns every sample's latency.
func (l *loadResult) latenciesMs() []float64 {
	out := make([]float64, len(l.samples))
	for i, s := range l.samples {
		out[i] = float64(s.latNs) / 1e6
	}
	return out
}

// windows cuts the phase into whole one-second windows and returns each
// window's median latency (ms) and answers per second: the within-run
// spread -compare reads.
func (l *loadResult) windows() (p50Ms, answersPerS []float64) {
	n := int(l.wallS)
	if n < 1 {
		return nil, nil
	}
	lat := make([][]float64, n)
	answers := make([]float64, n)
	for _, s := range l.samples {
		w := int(s.doneNs / int64(time.Second))
		if w >= n {
			continue
		}
		lat[w] = append(lat[w], float64(s.latNs)/1e6)
		answers[w] += float64(s.answers)
	}
	for w := range lat {
		if len(lat[w]) > 0 {
			p50Ms = append(p50Ms, median(lat[w]))
		}
	}
	return p50Ms, answers
}

// report turns a measured phase into the served workloads' end-to-end
// metrics and failure counts.
func (l *loadResult) report(r *result) {
	r.Attempted = len(l.samples) + l.failed
	r.Failed += l.failed
	r.Failures = append(r.Failures, l.failures...)
	r.MeasuredS = l.wallS

	lat := stats.Summarize(l.latenciesMs())
	p50w, apsw := l.windows()
	var answers float64
	for _, s := range l.samples {
		answers += float64(s.answers)
	}
	r.setSpread("latency_p50_ms", "ms", lat.Median, lat.N, p50w)
	r.setSpread("answers_per_s", "1/s", answers/l.wallS, lat.N, apsw)
	// Client-observed p99 does not repeat within 10 % on a 2-vCPU box, so
	// BENCHMARK.json lists it per layer (ungated) and both passes report it;
	// it means what it says only with ≥1000 samples (ten beyond it).
	r.setSpread("client.latency_p99_ms", "ms", lat.P99, lat.N, nil)
}
