package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"leosim"
	"leosim/internal/core"
	"leosim/internal/geo"
	"leosim/internal/graph"
	"leosim/internal/oracle"
	"leosim/internal/snapcache"
	"leosim/internal/telemetry"
)

// The layer ledger: every layer's public entry point timed from outside, on
// the common set-up, in every traced run. A layer metric is the median over
// at least `calls` calls; sub-microsecond calls are timed in batches. The
// ledger runs after the workload's own traced phase, on its own sim and its
// own primed server, so it reads the same on all five workloads.

// sink keeps measured calls from being optimised away.
var sink any

// discardWriter is the ResponseWriter for in-process handler timing: it
// keeps the status and counts bytes, so the handler's cost is measured
// without a recorder's buffering on top.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *discardWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += len(b)
	return len(b), nil
}
func (w *discardWriter) reset() {
	clear(w.h)
	w.status, w.n = 0, 0
}

// handlerRequest renders o as an *http.Request for Handler().ServeHTTP.
func handlerRequest(o *op) (*http.Request, error) {
	if o.post {
		return http.NewRequest(http.MethodPost, o.url, bytes.NewReader(o.body))
	}
	return http.NewRequest(http.MethodGet, o.url, nil)
}

// timeHandler serves each op in-process once and returns per-call
// nanoseconds plus mallocs and bytes allocated per call.
func timeHandler(h http.Handler, ops []op) (ns []float64, allocs, allocBytes float64, err error) {
	w := &discardWriter{h: http.Header{}}
	reqs := make([]*http.Request, len(ops))
	for i := range ops {
		if reqs[i], err = handlerRequest(&ops[i]); err != nil {
			return nil, 0, 0, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ns = timeCalls(len(ops), func(i int) {
		w.reset()
		h.ServeHTTP(w, reqs[i])
		if w.status != http.StatusOK && err == nil {
			err = fmt.Errorf("in-process %s: status %d", ops[i].url, w.status)
		}
	})
	runtime.ReadMemStats(&after)
	n := float64(len(ops))
	return ns, float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n, err
}

// pathResponse mirrors the server's GET /v1/path body, field for field, so
// re-encoding a decoded reply costs what the handler's encode costs.
type pathResponse struct {
	Time     time.Time       `json:"time"`
	Mode     string          `json:"mode"`
	Src      string          `json:"src"`
	Dst      string          `json:"dst"`
	Fault    string          `json:"fault,omitempty"`
	Stale    bool            `json:"stale,omitempty"`
	Degraded string          `json:"degraded,omitempty"`
	Path     *core.PathQuery `json:"path"`
}

// ledger measures every layer and records the per-layer metrics that do not
// depend on the workload. coldNewSimMs is the process's first NewSim, which
// only the caller could time.
func ledger(ctx context.Context, r *result, sc core.Scale, seed int64, calls int, coldNewSimMs float64) error {
	const ms, us = 1e6, 1e3
	r.set("core.newsim_cold_ms", "ms", coldNewSimMs)

	// core: assembling a sim once the process-global datasets are warm.
	var sim *core.Sim
	var err error
	newsim := timeCalls(calls, func(int) {
		var s *core.Sim
		if s, err = leosim.NewSim(leosim.Starlink, sc); err == nil {
			sim = s
		}
	})
	if sim == nil {
		return err
	}
	r.setMedian("core.newsim_ms", "ms", scaled(newsim, ms))
	times := sim.SnapshotTimes()
	at := func(i int) time.Time { return times[i%len(times)] }
	modes := []core.Mode{core.BP, core.Hybrid}

	// constellation: propagate every satellite to one instant.
	pos := make([]geo.Vec3, sim.Const.Size())
	r.setMedian("constellation.positions_ms", "ms", scaled(timeCalls(calls, func(i int) {
		pos = sim.Const.PositionsECEFInto(at(i), pos)
	}), ms))

	// graph: full snapshot build per mode, with its allocation count.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, mode := range modes {
		name := "graph.build_at_" + mode.String() + "_ms"
		r.setMedian(name, "ms", scaled(timeCalls(calls, func(i int) {
			sink, err = sim.BuildNetworkAt(ctx, at(i), mode, nil)
		}), ms))
		if err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	r.set("graph.build_at_allocs", "count", float64(after.Mallocs-before.Mallocs)/float64(2*calls))

	// graph: the sweep's time cursor, stepping one snapshot interval. At the
	// one-hour step every Advance falls back to a full rebuild; the count
	// says so.
	var steps []float64
	fallbacks := 0
	for w := 0; len(steps) < calls && len(times) > 1; w++ {
		walker := sim.NewWalker(modes[w%2])
		walker.At(times[0])
		steps = append(steps, timeCalls(len(times)-1, func(i int) { sink = walker.At(times[i+1]) })...)
		fallbacks += walker.Stats().FullRebuilds
	}
	r.setMedian("graph.walker_step_ms", "ms", scaled(steps, ms))
	r.set("graph.walker_fallbacks", "count", float64(fallbacks))

	// The two networks of snapshot 0 carry the remaining direct calls.
	nets := make([]*graph.Network, len(modes))
	for i, mode := range modes {
		if nets[i], err = sim.BuildNetworkAt(ctx, times[0], mode, nil); err != nil {
			return err
		}
	}
	hybrid := nets[1]
	r.set("graph.nodes", "count", float64(hybrid.N()))
	r.set("graph.links", "count", float64(len(hybrid.Links)))
	r.setMedian("graph.clone_ms", "ms", scaled(timeCalls(calls, func(i int) { sink = nets[i%2].Clone() }), ms))

	ncity := sim.NumCities()
	r.setMedian("graph.search_tree_ms", "ms", scaled(timeCalls(2*calls, func(i int) {
		n := nets[i%2]
		st := graph.AcquireSearch()
		n.Search(st, graph.SearchSpec{Src: n.CityNode(i % ncity), Target: graph.NoTarget})
		st.Release()
	}), ms))
	pair := func(i int) core.Pair { return sim.Pairs[i%len(sim.Pairs)] }
	r.setMedian("graph.search_pair_ms", "ms", scaled(timeCalls(2*calls, func(i int) {
		n, p := nets[i%2], pair(i)
		sink, _ = n.ShortestPath(n.CityNode(p.Src), n.CityNode(p.Dst))
	}), ms))

	// graph + flow: the Fig 4 pipeline on the hybrid network — every pair's
	// k=4 path set (each call a sample), then the allocation problem.
	paths := make([][]graph.Path, len(sim.Pairs))
	r.setMedian("graph.kdisjoint_k4_ms", "ms", scaled(timeCalls(len(sim.Pairs), func(i int) {
		p := sim.Pairs[i]
		paths[i] = hybrid.KDisjointPaths(hybrid.CityNode(p.Src), hybrid.CityNode(p.Dst), 4)
	}), ms))
	r.setMedian("flow.problem_build_ms", "ms", scaled(timeCalls(calls, func(int) {
		sink, err = buildProblem(hybrid, sim.SatCapGbps, paths)
	}), ms))
	if err != nil {
		return err
	}
	pr, err := buildProblem(hybrid, sim.SatCapGbps, paths)
	if err != nil {
		return err
	}
	r.setMedian("flow.maxmin_ms", "ms", scaled(timeCalls(calls, func(int) { sink, err = pr.MaxMinFair() }), ms))
	if err != nil {
		return err
	}

	// oracle: one tree per city, then the reads the batch endpoint makes.
	oracles := make([]*oracle.Oracle, len(nets))
	r.setMedian("oracle.build_ms", "ms", scaled(timeCalls(calls, func(i int) {
		oracles[i%2], err = oracle.Build(ctx, nets[i%2], oracle.Options{})
	}), ms))
	if err != nil {
		return err
	}
	for i := range oracles { // calls == 1 leaves one mode unbuilt
		if oracles[i] == nil {
			if oracles[i], err = oracle.Build(ctx, nets[i], oracle.Options{}); err != nil {
				return err
			}
		}
	}
	r.set("oracle.bytes_mb", "MB", float64(oracles[1].Stats().Bytes)/1e6)

	d := newDrawer(seed*1000+300, ncity, len(times))
	const draws = 1024
	var srcs, dsts [draws]int
	var found []graph.Path
	for i := range srcs {
		srcs[i], dsts[i] = d.pair()
		if p, ok := oracles[1].Query(srcs[i], dsts[i]); ok {
			found = append(found, p)
		}
	}
	if len(found) == 0 {
		return fmt.Errorf("ledger: no reachable pair among %d draws", draws)
	}
	r.setMedian("oracle.query_ns", "ns", timeBatches(calls, draws, func(i int) {
		sink, _ = oracles[1].Query(srcs[i%draws], dsts[i%draws])
	}))
	var dist float64
	r.setMedian("oracle.dist_ns", "ns", timeBatches(calls, draws, func(i int) {
		dist += oracles[1].DistMs(srcs[i%draws], dsts[i%draws])
	}))
	sink = dist
	r.setMedian("core.path_query_of_ns", "ns", timeBatches(calls, len(found), func(i int) {
		sink = core.PathQueryOf(hybrid, found[i%len(found)])
	}))

	// core: the live-kernel answer and the masked build — what a what-if
	// hit and miss cost.
	r.setMedian("core.path_at_ms", "ms", scaled(timeCalls(2*calls, func(i int) {
		sink, err = sim.PathAt(ctx, nets[i%2], srcs[i%draws], dsts[i%draws])
	}), ms))
	if err != nil {
		return err
	}
	r.setMedian("core.build_masked_ms", "ms", scaled(timeCalls(calls, func(i int) {
		outages, rerr := realizeOutages(sim, seed*1_000_000+900_000+int64(i))
		if rerr != nil {
			err = rerr
			return
		}
		sink, err = sim.BuildNetworkAt(ctx, at(i), modes[i%2], outages)
	}), ms))
	if err != nil {
		return err
	}

	// The serving layers need a live server; server.New also switches the
	// process's telemetry on, as in `leosim serve`.
	srv, err := startServer(ctx, sim)
	if err != nil {
		return err
	}
	defer srv.stop() //nolint:errcheck // the success path returns stop's error below
	r.set("server.prime_s", "s", srv.primeS)

	// snapcache: hit and attachment lookups on a bench-owned cache keyed
	// like the server's.
	cache := snapcache.New(func(context.Context, snapcache.Key) (*graph.Network, error) {
		return nil, fmt.Errorf("ledger cache is pre-filled; no build expected")
	}, snapcache.Options{Capacity: 2*len(times) + 8})
	keys := make([]snapcache.Key, len(modes))
	for i, mode := range modes {
		keys[i] = snapcache.Key{Scenario: fmt.Sprintf("%s/%s/%s", sim.Choice, sim.Scale.Name, mode), Time: times[0]}
		cache.Put(keys[i], nets[i])
		cache.Attach(keys[i], nets[i], oracles[i])
	}
	r.setMedian("snapcache.get_hit_ns", "ns", timeBatches(calls, draws, func(i int) {
		sink, _, err = cache.GetEx(ctx, keys[i%2])
	}))
	if err != nil {
		return err
	}
	r.setMedian("snapcache.attachment_ns", "ns", timeBatches(calls, draws, func(i int) {
		sink, _, _ = cache.Attachment(keys[i%2])
	}))

	// telemetry: one span with a recorder in the context, as every request
	// stage pays.
	tctx := telemetry.WithRecorder(ctx, telemetry.NewRecorder())
	r.setMedian("telemetry.span_enabled_ns", "ns", timeBatches(calls, draws, func(int) {
		telemetry.StartSpan(tctx, telemetry.StageSearch).End()
	}))

	// server: the same requests three ways — over loopback from one client,
	// through the handler in-process, and (above) as direct layer calls.
	pathOps := servePathOps(sim, seed, 1)[0][:min(20*calls, pathOpsPerClient)]
	batchLists, err := servePathsOps(sim, seed, 1)
	if err != nil {
		return err
	}
	batchOps := batchLists[0][:min(2*calls, batchBodiesPerClient)]
	h := srv.srv.Handler()

	handlerNs, allocs, allocBytes, err := timeHandler(h, pathOps)
	if err != nil {
		return err
	}
	r.setMedian("server.handler_path_us", "us", scaled(handlerNs, us))
	handlerUs := r.Metrics["server.handler_path_us"].Value
	r.set("server.handler_path_allocs", "count", allocs)
	r.set("server.handler_path_bytes", "B", allocBytes)

	perPair := float64(batchOps[0].answers)
	batchNs, batchAllocs, _, err := timeHandler(h, batchOps)
	if err != nil {
		return err
	}
	r.setMedian("server.handler_paths_us_per_pair", "us", scaled(batchNs, us*perPair))
	r.set("server.handler_paths_allocs_per_pair", "count", batchAllocs/perPair)

	// encode: decode what the handler wrote, re-encode it the handler's way.
	var encodeNs []float64
	reencoded := true
	for i := range pathOps[:min(2*calls, len(pathOps))] {
		req, err := handlerRequest(&pathOps[i])
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		body := rec.Body.Bytes()
		var v pathResponse
		if err := json.Unmarshal(body, &v); err != nil {
			return fmt.Errorf("decoding in-process reply: %w", err)
		}
		var again bytes.Buffer
		t0 := nowNs()
		enc := json.NewEncoder(&again)
		enc.SetIndent("", "  ")
		err = enc.Encode(v)
		encodeNs = append(encodeNs, float64(nowNs()-t0))
		if err != nil {
			return err
		}
		reencoded = reencoded && bytes.Equal(again.Bytes(), body)
	}
	r.check(reencoded, "re-encoding decoded /v1/path replies reproduces the handler's bytes (server.encode_us times the same work)")
	r.setMedian("server.encode_us", "us", scaled(encodeNs, us))
	encodeUs := r.Metrics["server.encode_us"].Value

	layersUs := (r.Metrics["snapcache.get_hit_ns"].Value + r.Metrics["snapcache.attachment_ns"].Value +
		r.Metrics["oracle.query_ns"].Value + r.Metrics["core.path_query_of_ns"].Value) / us
	r.set("server.unattributed_us", "us", handlerUs-layersUs-encodeUs)

	// transport: the same GETs over real loopback from one closed-loop
	// client; what net/http, the socket and the client add to the handler.
	cl := newClient(1)
	defer cl.CloseIdleConnections()
	absolute := absolutize([][]op{pathOps}, srv.base)
	load := runLoad(cl, absolute, nil, time.Duration(len(pathOps))*200*time.Microsecond, nil)
	if load.failed > 0 || len(load.samples) == 0 {
		return fmt.Errorf("ledger: loopback sample failed: %v", load.failures)
	}
	r.set("server.transport_us", "us", median(load.latenciesMs())*1e3-handlerUs)
	return srv.stop()
}
