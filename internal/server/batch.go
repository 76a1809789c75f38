package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"
	"unicode/utf8"

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

// batchPathsRequest is the POST /v1/paths body: the same snapshot selection
// the GET endpoints take as query parameters (see snapForm), plus the pairs.
// The selection's fields are spelled out rather than embedded because JSON
// type errors quote the Go field path back to the client.
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

// decodeBatchPaths is the POST front-end: it parses one batch body and
// validates it against the snapshot schedule times. It is a pure function of
// its arguments — no sim, no clock, no server state — which is what makes it
// fuzzable in isolation (FuzzBatchPathsDecode): any input must produce
// either a request with its spec or a *badRequestError, never a panic.
// City-name resolution happens later in the handler, where the sim is at
// hand.
func decodeBatchPaths(data []byte, maxPairs int, times []time.Time) (*batchPathsRequest, snapSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req batchPathsRequest
	if err := dec.Decode(&req); err != nil {
		return nil, snapSpec{}, badRequest("invalid JSON body: %v", err)
	}
	if dec.More() {
		return nil, snapSpec{}, badRequest("trailing data after JSON body")
	}
	form := snapForm{mode: req.Mode, snap: req.Snap, t: req.T, fault: req.Fault, fraction: req.Fraction, seed: req.FaultSeed}
	spec, err := form.spec(times, "faultSeed")
	if err != nil {
		return nil, snapSpec{}, err
	}
	if len(req.Pairs) == 0 {
		return nil, snapSpec{}, badRequest("pairs must be a non-empty array")
	}
	if len(req.Pairs) > maxPairs {
		return nil, snapSpec{}, badRequest("too many pairs: %d exceeds the per-request limit %d", len(req.Pairs), maxPairs)
	}
	seen := make(map[batchPair]struct{}, len(req.Pairs))
	for i, p := range req.Pairs {
		if p.Src == "" || p.Dst == "" {
			return nil, snapSpec{}, badRequest("pairs[%d]: src and dst are required", i)
		}
		if p.Src == p.Dst {
			return nil, snapSpec{}, badRequest("pairs[%d]: src equals dst (%q)", i, p.Src)
		}
		if _, dup := seen[p]; dup {
			return nil, snapSpec{}, badRequest("pairs[%d]: duplicate pair %q → %q", i, p.Src, p.Dst)
		}
		seen[p] = struct{}{}
	}
	return &req, spec, nil
}

// batchPathEntry is one pair's answer, aligned by index with the request's
// pairs array. The struct tags are the row's wire form; appendJSON is what
// writes it.
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

// batchPathsResponse is the response envelope: every member but the last,
// "results", whose rows the handler appends itself (batchPathEntry.appendJSON)
// behind this struct's encoding.
type batchPathsResponse struct {
	Time     time.Time      `json:"time"`
	Mode     string         `json:"mode"`
	Fault    string         `json:"fault,omitempty"`
	Degraded string         `json:"degraded,omitempty"`
	Count    int            `json:"count"`
	Oracle   oracleMetaJSON `json:"oracle"`
}

// ---- the results rows' wire form -----------------------------------------
//
// A batch response is a few hundred bytes of envelope and ~175 bytes per pair
// of rows. Encoding the rows through encoding/json cost more than answering
// them — reflection over every entry, then a second pass over the whole body
// to indent it — so the rows are appended directly, already indented, and
// only the envelope goes through encoding/json. The bytes are the ones
// json.MarshalIndent gives for the same batchPathEntry (writeJSON's two-space
// indent, HTML-escaping on); FuzzBatchEntryJSON holds the writer to that, and
// served.golden pins whole responses.

// The fragments between the values. A row sits two levels deep — in the
// "results" array, in the envelope — and its members a third.
const (
	batchResultsOpen  = ",\n  \"results\": ["
	batchRowIndent    = "\n    "
	batchResultsClose = "\n  ]\n}\n"

	rowSrc       = "{\n      \"src\": "
	rowDst       = ",\n      \"dst\": "
	rowReachable = ",\n      \"reachable\": "
	rowRTTMs     = ",\n      \"rttMs\": "
	rowOneWayMs  = ",\n      \"oneWayMs\": "
	rowHops      = ",\n      \"hops\": "
	rowRoute     = ",\n      \"route\": ["
	rowRouteNode = "\n        "
	rowRouteEnd  = "\n      ]"
	rowEnd       = "\n    }"
)

// batchRowReserve bounds the encoded size of a route-less row beyond its two
// names: its separator, the fragments, the names' quotes and the widest
// values — "false", two floats (-0.0000012345678901234567 is 25 bytes, 'e'
// forms are shorter) and a 20-byte hop count. With it the handler reserves the
// response buffer once; only names that need escaping, and routes, make it
// grow.
const batchRowReserve = len(",") + len(batchRowIndent) +
	len(rowSrc+rowDst+rowReachable+rowRTTMs+rowOneWayMs+rowHops+rowEnd) +
	len(`""`+`""`+"false") + 2*25 + 20

// appendJSON appends the entry as json.MarshalIndent(e, "    ", "  ") writes
// it: the row of a response, from its opening brace.
func (e *batchPathEntry) appendJSON(dst []byte) []byte {
	dst = append(dst, rowSrc...)
	dst = appendJSONString(dst, e.Src)
	dst = append(dst, rowDst...)
	dst = appendJSONString(dst, e.Dst)
	dst = append(dst, rowReachable...)
	dst = strconv.AppendBool(dst, e.Reachable)
	if e.RTTMs != 0 {
		dst = append(dst, rowRTTMs...)
		dst = appendJSONFloat(dst, e.RTTMs)
	}
	if e.OneWayMs != 0 {
		dst = append(dst, rowOneWayMs...)
		dst = appendJSONFloat(dst, e.OneWayMs)
	}
	if e.Hops != 0 {
		dst = append(dst, rowHops...)
		dst = strconv.AppendInt(dst, int64(e.Hops), 10)
	}
	if len(e.Route) > 0 {
		dst = append(dst, rowRoute...)
		for i, name := range e.Route {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, rowRouteNode...)
			dst = appendJSONString(dst, name)
		}
		dst = append(dst, rowRouteEnd...)
	}
	return append(dst, rowEnd...)
}

// appendJSONFloat appends a finite f in encoding/json's number form: the
// shortest digits that round-trip, positional unless the exponent is below
// -6 or at least 21, and then with the exponent's leading zero dropped.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 → e-7
		dst = dst[:n-1]
	}
	return dst
}

// appendJSONString appends s quoted and escaped as encoding/json does with
// HTML-escaping on: `"`, `\`, control bytes, `<`, `>`, `&`, U+2028 and U+2029
// are escaped, invalid UTF-8 becomes \ufffd, everything else is copied.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0 // s[start:i] is verbatim text not yet copied
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// batchCancelPollInterval spaces context polls in the answer loop: a
// disconnected client stops costing CPU within a few hundred oracle reads.
const batchCancelPollInterval = 256

// handleBatchPaths answers POST /v1/paths: up to MaxBatchPairs city pairs
// against one (snapshot, mode, fault-mask), served from the snapshot's
// precomputed distance oracle. The first batch against a cold snapshot pays
// the one-time oracle build (singleflight — concurrent batches share it);
// every batch after that answers each pair in microseconds.
func (s *Server) handleBatchPaths(w http.ResponseWriter, r *http.Request) error {
	ctx := r.Context()
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBatchBodyBytes+1))
	if err != nil {
		return badRequest("reading request body: %v", err)
	}
	if len(body) > maxBatchBodyBytes {
		return badRequest("request body exceeds %d bytes", maxBatchBodyBytes)
	}
	req, spec, err := decodeBatchPaths(body, MaxBatchPairs, s.times)
	if err != nil {
		return err
	}
	type idxPair struct{ src, dst int }
	pairs := make([]idxPair, len(req.Pairs))
	reserve := len(pairs) * batchRowReserve
	for i, p := range req.Pairs {
		si, ok := s.cfg.Sim.FindCity(p.Src)
		if !ok {
			return &notFoundError{msg: fmt.Sprintf("pairs[%d]: unknown city %q", i, p.Src)}
		}
		di, ok := s.cfg.Sim.FindCity(p.Dst)
		if !ok {
			return &notFoundError{msg: fmt.Sprintf("pairs[%d]: unknown city %q", i, p.Dst)}
		}
		pairs[i] = idxPair{src: si, dst: di}
		reserve += len(p.Src) + len(p.Dst)
	}
	rs, err := s.resolve(ctx, spec)
	if err != nil {
		return err
	}
	// A batch is worth an oracle: where resolve found none attached, pay the
	// one-time build (shared with every concurrent batch for this key).
	cached := rs.orc != nil
	if !cached {
		if rs.orc, err = s.oracleFor(ctx, rs.key, rs.view); err != nil {
			return err
		}
	}
	ost := rs.orc.Stats()
	head, err := json.MarshalIndent(batchPathsResponse{
		Time: spec.t, Mode: spec.mode.String(), Fault: spec.mask, Degraded: rs.degraded,
		Count: len(pairs),
		Oracle: oracleMetaJSON{
			Cached:  cached,
			BuildMs: float64(ost.BuildDuration) / float64(time.Millisecond),
			Sources: ost.Sources,
		},
	}, "", "  ")
	if err != nil {
		return err
	}
	// The envelope's closing "\n}" is held back: "results" goes in as its last
	// member, one appended row per pair, and then the envelope closes.
	out := make([]byte, 0, len(head)+len(batchResultsOpen)+reserve+len(batchResultsClose))
	out = append(out, head[:len(head)-len("\n}")]...)
	out = append(out, batchResultsOpen...)
	for i, p := range pairs {
		if i%batchCancelPollInterval == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		q, err := s.answer(ctx, rs, p.src, p.dst, req.IncludeRoutes)
		if err != nil {
			return err
		}
		entry := batchPathEntry{
			Src: req.Pairs[i].Src, Dst: req.Pairs[i].Dst,
			Reachable: q.Reachable, RTTMs: q.RTTMs, OneWayMs: q.OneWayMs, Hops: q.Hops,
			Route: q.Route,
		}
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, batchRowIndent...)
		out = entry.appendJSON(out)
	}
	out = append(out, batchResultsClose...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(out) //nolint:errcheck // client gone — nothing left to do
	return nil
}

// oracleCall is one in-flight singleflight oracle build.
type oracleCall struct {
	done chan struct{}
	o    *oracle.Oracle
	err  error
}

// oracleFor builds the distance oracle for key's snapshot view v — resolve
// found none attached — at most once per key at a time: concurrent batches
// against the same cold snapshot elect one builder and share its result. A
// what-if's oracle is built on its parent's network with the cut banned. A
// successful build is attached to the snapshot-cache entry
// (snapcache.Attach), so the oracle rides the snapshot's own LRU
// lifecycle; the attach is a no-op if v is not the resident view (a
// degraded fallback's, or the entry was evicted meanwhile) — the oracle still
// answers this request, it just isn't pinned.
func (s *Server) oracleFor(ctx context.Context, key snapcache.Key, v *graph.View) (*oracle.Oracle, error) {
	s.oracleMu.Lock()
	if cl, inflight := s.oracleInflight[key]; inflight {
		s.oracleMu.Unlock()
		select {
		case <-cl.done:
			if cl.err == nil && !cl.o.Valid(v) {
				// The leader built against a different view (a degraded
				// fallback raced the key's own build, or an eviction and
				// rebuild). Rare: build our own, unshared and unattached —
				// correctness over reuse.
				return s.buildOracle(ctx, key, v, false)
			}
			return cl.o, cl.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	cl := &oracleCall{done: make(chan struct{})}
	s.oracleInflight[key] = cl
	s.oracleMu.Unlock()
	go func() {
		// Detached from the leader's cancellation, like snapshot builds:
		// followers with live contexts still want the result, and the next
		// batch for this key certainly does.
		cl.o, cl.err = s.buildOracle(context.WithoutCancel(ctx), key, v, true)
		s.oracleMu.Lock()
		delete(s.oracleInflight, key)
		s.oracleMu.Unlock()
		close(cl.done)
	}()
	select {
	case <-cl.done:
		return cl.o, cl.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// buildOracle runs one oracle build — for a batch or for the primer — and
// (when attach is set) pins the result to the snapshot-cache entry it was
// derived from.
func (s *Server) buildOracle(ctx context.Context, key snapcache.Key, v *graph.View, attach bool) (*oracle.Oracle, error) {
	start := time.Now()
	o, err := oracle.Build(ctx, v.N, v.Cut)
	if err != nil {
		telemetry.EmitEvent(ctx, telemetry.CatServe, telemetry.SevError,
			"oracle build failed",
			telemetry.Str("key", key.String()),
			telemetry.Str("err", err.Error()))
		return nil, err
	}
	s.oracleBuilds.Add(1)
	if attach {
		s.cache.Attach(key, v, o)
	}
	telemetry.EmitEvent(ctx, telemetry.CatServe, telemetry.SevInfo,
		"oracle built",
		telemetry.Str("key", key.String()),
		telemetry.Int64("durMs", time.Since(start).Milliseconds()),
		telemetry.Int64("sources", int64(o.Sources())))
	return o, nil
}
