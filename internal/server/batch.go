package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"leosim/internal/core"
	"leosim/internal/fault"
	"leosim/internal/graph"
	"leosim/internal/oracle"
	"leosim/internal/snapcache"
	"leosim/internal/telemetry"
)

// MaxBatchPairs bounds one POST /v1/paths request. Above it the request is
// rejected with 400 — callers split into multiple batches rather than the
// server queueing unbounded work behind one connection.
const MaxBatchPairs = 10000

// maxBatchBodyBytes bounds the request body read: ~10k pairs of long city
// names fit comfortably; anything bigger is rejected before JSON decoding
// touches it.
const maxBatchBodyBytes = 4 << 20

// batchPair is one requested city pair.
type batchPair struct {
	Src string `json:"src"`
	Dst string `json:"dst"`
}

// batchPathsRequest is the POST /v1/paths body. Snapshot selection mirrors
// the GET endpoints: "snap" indexes the schedule, "t" takes RFC3339 or a
// duration offset, neither means the first snapshot; the fault triple
// matches ?fault=&fraction=&fault-seed=.
type batchPathsRequest struct {
	Mode          string      `json:"mode,omitempty"`
	Snap          *int        `json:"snap,omitempty"`
	T             string      `json:"t,omitempty"`
	Fault         string      `json:"fault,omitempty"`
	Fraction      *float64    `json:"fraction,omitempty"`
	FaultSeed     *int64      `json:"faultSeed,omitempty"`
	IncludeRoutes bool        `json:"includeRoutes,omitempty"`
	Pairs         []batchPair `json:"pairs"`
}

// decodeBatchPaths parses and validates one batch body. It is a pure
// function of its input — no sim, no clock, no server state — which is what
// makes it fuzzable in isolation (FuzzBatchPathsDecode): any input must
// produce either a request or a *badRequestError, never a panic. City-name
// resolution happens later in the handler, where the sim is at hand.
func decodeBatchPaths(data []byte, maxPairs int) (*batchPathsRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req batchPathsRequest
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest("invalid JSON body: %v", err)
	}
	if dec.More() {
		return nil, badRequest("trailing data after JSON body")
	}
	switch req.Mode {
	case "", core.BP.String(), core.Hybrid.String():
	default:
		return nil, badRequest("mode must be %q or %q", core.BP, core.Hybrid)
	}
	if req.Snap != nil && req.T != "" {
		return nil, badRequest("snap and t are mutually exclusive")
	}
	if len(req.Pairs) == 0 {
		return nil, badRequest("pairs must be a non-empty array")
	}
	if len(req.Pairs) > maxPairs {
		return nil, badRequest("too many pairs: %d exceeds the per-request limit %d", len(req.Pairs), maxPairs)
	}
	seen := make(map[batchPair]struct{}, len(req.Pairs))
	for i, p := range req.Pairs {
		if p.Src == "" || p.Dst == "" {
			return nil, badRequest("pairs[%d]: src and dst are required", i)
		}
		if p.Src == p.Dst {
			return nil, badRequest("pairs[%d]: src equals dst (%q)", i, p.Src)
		}
		if _, dup := seen[p]; dup {
			return nil, badRequest("pairs[%d]: duplicate pair %q → %q", i, p.Src, p.Dst)
		}
		seen[p] = struct{}{}
	}
	if req.Fault == "" {
		if req.Fraction != nil || req.FaultSeed != nil {
			return nil, badRequest("fraction/faultSeed require fault=<scenario>")
		}
	} else if !fault.Scenario(req.Fault).Valid() {
		return nil, badRequest("fault must be one of %v", fault.Scenarios())
	}
	if req.Fraction != nil && (*req.Fraction < 0 || *req.Fraction > 1) {
		return nil, badRequest("fraction must be a number in [0,1]")
	}
	return &req, nil
}

// mode resolves the validated mode string.
func (r *batchPathsRequest) mode() core.Mode {
	if r.Mode == core.Hybrid.String() {
		return core.Hybrid
	}
	return core.BP
}

// mask renders the validated fault triple as the canonical cache-key
// fingerprint, with the same defaults as the GET parameter form.
func (r *batchPathsRequest) maskFingerprint() string {
	if r.Fault == "" {
		return ""
	}
	frac := 0.1
	if r.Fraction != nil {
		frac = *r.Fraction
	}
	seed := int64(1)
	if r.FaultSeed != nil {
		seed = *r.FaultSeed
	}
	return fmt.Sprintf("%s:%g:%d", r.Fault, frac, seed)
}

// batchPathEntry is one pair's answer, aligned by index with the request's
// pairs array.
type batchPathEntry struct {
	Src       string   `json:"src"`
	Dst       string   `json:"dst"`
	Reachable bool     `json:"reachable"`
	RTTMs     float64  `json:"rttMs,omitempty"`
	OneWayMs  float64  `json:"oneWayMs,omitempty"`
	Hops      int      `json:"hops,omitempty"`
	Route     []string `json:"route,omitempty"`
}

// oracleMetaJSON reports the oracle that answered a batch: whether this
// request found it already attached to the snapshot, and the one-time build
// cost that was paid (by this request or an earlier one / the primer) to
// make every query after it a few array reads.
type oracleMetaJSON struct {
	Cached  bool    `json:"cached"`
	BuildMs float64 `json:"buildMs"`
	Sources int     `json:"sources"`
}

type batchPathsResponse struct {
	Time     time.Time        `json:"time"`
	Mode     string           `json:"mode"`
	Fault    string           `json:"fault,omitempty"`
	Stale    bool             `json:"stale,omitempty"`
	Degraded string           `json:"degraded,omitempty"`
	Count    int              `json:"count"`
	Oracle   oracleMetaJSON   `json:"oracle"`
	Results  []batchPathEntry `json:"results"`
}

// batchCancelPollInterval spaces context polls in the answer loop: a
// disconnected client stops costing CPU within a few hundred oracle reads.
const batchCancelPollInterval = 256

// handleBatchPaths answers POST /v1/paths: up to MaxBatchPairs city pairs
// against one (snapshot, mode, fault-mask), served from the snapshot's
// precomputed distance oracle. The first batch against a cold snapshot pays
// the one-time oracle build (singleflight — concurrent batches share it);
// every batch after that answers each pair in microseconds.
func (s *Server) handleBatchPaths(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBatchBodyBytes+1))
	if err != nil {
		s.fail(w, r, badRequest("reading request body: %v", err))
		return
	}
	if len(body) > maxBatchBodyBytes {
		s.fail(w, r, badRequest("request body exceeds %d bytes", maxBatchBodyBytes))
		return
	}
	req, err := decodeBatchPaths(body, MaxBatchPairs)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	t, err := s.timeAt(req.Snap, req.T)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	type idxPair struct{ src, dst int }
	pairs := make([]idxPair, len(req.Pairs))
	for i, p := range req.Pairs {
		si, ok := s.cfg.Sim.FindCity(p.Src)
		if !ok {
			s.fail(w, r, &notFoundError{msg: fmt.Sprintf("pairs[%d]: unknown city %q", i, p.Src)})
			return
		}
		di, ok := s.cfg.Sim.FindCity(p.Dst)
		if !ok {
			s.fail(w, r, &notFoundError{msg: fmt.Sprintf("pairs[%d]: unknown city %q", i, p.Dst)})
			return
		}
		pairs[i] = idxPair{src: si, dst: di}
	}
	mode, mask := req.mode(), req.maskFingerprint()
	n, meta, err := s.snapshot(ctx, t, mode, mask)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	orc, cached, err := s.oracleFor(ctx, s.cacheKey(t, mode, mask), n)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	ost := orc.Stats()
	resp := batchPathsResponse{
		Time: t, Mode: mode.String(), Fault: mask,
		Stale: meta.Stale, Degraded: meta.Degraded,
		Count: len(pairs),
		Oracle: oracleMetaJSON{
			Cached:  cached,
			BuildMs: float64(ost.BuildDuration) / float64(time.Millisecond),
			Sources: ost.Sources,
		},
		Results: make([]batchPathEntry, len(pairs)),
	}
	for i, p := range pairs {
		if i%batchCancelPollInterval == 0 && ctx.Err() != nil {
			s.fail(w, r, ctx.Err())
			return
		}
		entry := &resp.Results[i]
		entry.Src, entry.Dst = req.Pairs[i].Src, req.Pairs[i].Dst
		path, ok := orc.Query(p.src, p.dst)
		if !ok {
			continue
		}
		q := core.PathQueryOf(n, path)
		entry.Reachable = true
		entry.RTTMs = q.RTTMs
		entry.OneWayMs = q.OneWayMs
		entry.Hops = q.Hops
		if req.IncludeRoutes {
			entry.Route = q.Route
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// oracleCall is one in-flight singleflight oracle build.
type oracleCall struct {
	done chan struct{}
	o    *oracle.Oracle
	err  error
}

// oracleFor returns the distance oracle for key's snapshot n, building it at
// most once per key at a time: concurrent batches against the same cold
// snapshot elect one builder and share its result. A successful build is
// attached to the snapshot-cache entry (snapcache.Attach), so the oracle
// rides the snapshot's own LRU/TTL/generation lifecycle; the attach is a
// no-op if the entry was evicted or rebuilt meanwhile — the oracle still
// answers this request, it just isn't pinned.
//
// cached reports whether the oracle was found ready-made (attached by an
// earlier request or the background primer).
func (s *Server) oracleFor(ctx context.Context, key snapcache.Key, n *graph.Network) (o *oracle.Oracle, cached bool, err error) {
	if aux, net, ok := s.cache.Attachment(key); ok && net == n {
		if att, isOracle := aux.(*oracle.Oracle); isOracle && att.Valid(n) {
			s.oracleHits.Add(1)
			return att, true, nil
		}
	}
	s.oracleMu.Lock()
	if cl, inflight := s.oracleInflight[key]; inflight {
		s.oracleMu.Unlock()
		select {
		case <-cl.done:
			if cl.err == nil && !cl.o.Valid(n) {
				// The leader built against a different network instance (a
				// degraded fallback raced a rebuild). Rare: build our own,
				// unshared and unattached — correctness over reuse.
				return s.buildOracle(ctx, key, n, false)
			}
			return cl.o, false, cl.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	cl := &oracleCall{done: make(chan struct{})}
	s.oracleInflight[key] = cl
	s.oracleMu.Unlock()
	go func() {
		// Detached from the leader's cancellation, like snapshot builds:
		// followers with live contexts still want the result, and the next
		// batch for this key certainly does.
		cl.o, _, cl.err = s.buildOracle(context.WithoutCancel(ctx), key, n, true)
		s.oracleMu.Lock()
		delete(s.oracleInflight, key)
		s.oracleMu.Unlock()
		close(cl.done)
	}()
	select {
	case <-cl.done:
		return cl.o, false, cl.err
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}

// buildOracle runs one oracle build and (when attach is set) pins the result
// to the snapshot-cache entry it was derived from.
func (s *Server) buildOracle(ctx context.Context, key snapcache.Key, n *graph.Network, attach bool) (*oracle.Oracle, bool, error) {
	start := time.Now()
	o, err := oracle.Build(ctx, n, oracle.Options{})
	if err != nil {
		telemetry.EmitEvent(ctx, telemetry.CatServe, telemetry.SevError,
			"oracle build failed",
			telemetry.Str("key", key.String()),
			telemetry.Str("err", err.Error()))
		return nil, false, err
	}
	s.oracleBuilds.Add(1)
	if attach {
		s.cache.Attach(key, n, o)
	}
	telemetry.EmitEvent(ctx, telemetry.CatServe, telemetry.SevInfo,
		"oracle built",
		telemetry.Str("key", key.String()),
		telemetry.Int64("durMs", time.Since(start).Milliseconds()),
		telemetry.Int64("sources", int64(o.Sources())))
	return o, false, nil
}
