package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"leosim/internal/graph"
	"leosim/internal/oracle"
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
//
// The body is scanned once (scanBatchPaths), in the grammar the API
// documents: one JSON object whose members are the request's eight, spelled
// exactly as tagged and each at most once; one or more pairs, objects of
// exactly "src" and "dst"; strings without escapes or control bytes that are valid
// UTF-8; numbers as JSON writes them, in range for their member; whitespace
// anywhere between tokens and nothing else after the object. Every name is a
// substring of the body's one string conversion, so the parse allocates
// nothing per pair. On any byte outside that grammar the scanner declines
// rather than judge, and the body goes to encoding/json (decodeBatchJSON)
// instead: every error text, and every leniency encoding/json has — keys in
// another case, escapes, the last of repeated keys winning, invalid UTF-8
// read as U+FFFD — stays encoding/json's, byte for byte. Both parses feed the
// one validation (check), so what is refused, and in which order, cannot
// differ between them; FuzzBatchPathsDecode holds the pair to encoding/json
// on every input.
func decodeBatchPaths(data []byte, maxPairs int, times []time.Time) (*batchPathsRequest, snapSpec, error) {
	req, ok := scanBatchPaths(data, maxPairs)
	if !ok {
		var err error
		if req, err = decodeBatchJSON(data); err != nil {
			return nil, snapSpec{}, err
		}
	}
	spec, err := req.check(maxPairs, times)
	if err != nil {
		return nil, snapSpec{}, err
	}
	return req, spec, nil
}

// scanBatchPaths parses a body in decodeBatchPaths' grammar, or declines
// (ok false) at the first byte outside it. It never errs: a declined body
// goes to encoding/json. The pairs are reserved once, for as many as the
// body has opening braces but at most maxPairs.
func scanBatchPaths(data []byte, maxPairs int) (*batchPathsRequest, bool) {
	sc := batchScanner{s: string(data)}
	req := new(batchPathsRequest)
	var seen uint8 // one bit per member, in the order of the cases below
	if !sc.next('{') {
		return nil, false
	}
	for {
		key, ok := sc.str()
		if !ok || !sc.next(':') {
			return nil, false
		}
		var bit uint8
		switch key {
		case "mode":
			bit = 1 << 0
			req.Mode, ok = sc.str()
		case "snap":
			bit = 1 << 1
			n, err := strconv.ParseInt(sc.number(), 10, strconv.IntSize)
			snap := int(n)
			req.Snap, ok = &snap, err == nil
		case "t":
			bit = 1 << 2
			req.T, ok = sc.str()
		case "fault":
			bit = 1 << 3
			req.Fault, ok = sc.str()
		case "fraction":
			bit = 1 << 4
			x, err := strconv.ParseFloat(sc.number(), 64)
			req.Fraction, ok = &x, err == nil
		case "faultSeed":
			bit = 1 << 5
			n, err := strconv.ParseInt(sc.number(), 10, 64)
			req.FaultSeed, ok = &n, err == nil
		case "includeRoutes":
			bit = 1 << 6
			req.IncludeRoutes, ok = sc.bool()
		case "pairs":
			bit = 1 << 7
			req.Pairs, ok = sc.pairs(maxPairs)
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return nil, false
		}
		seen |= bit
		if sc.next('}') {
			return req, sc.end()
		}
		if !sc.next(',') {
			return nil, false
		}
	}
}

// batchScanner is scanBatchPaths' cursor: s is the whole body, i the next
// byte to read. Each method reports whether its token was there, in the
// grammar; on false the scan is over. Those that read a token (next, str,
// bool, number) skip the whitespace before it; accept and digits read on
// from the cursor.
type batchScanner struct {
	s string
	i int
}

// skip moves past JSON whitespace.
func (sc *batchScanner) skip() {
	for sc.i < len(sc.s) {
		switch sc.s[sc.i] {
		case ' ', '\t', '\n', '\r':
			sc.i++
		default:
			return
		}
	}
}

// next consumes the byte c.
func (sc *batchScanner) next(c byte) bool {
	sc.skip()
	return sc.accept(c)
}

// accept consumes the byte c if it is the next one, whitespace or not.
func (sc *batchScanner) accept(c byte) bool {
	if sc.i < len(sc.s) && sc.s[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (sc *batchScanner) end() bool {
	sc.skip()
	return sc.i == len(sc.s)
}

// str consumes a string without escapes or control bytes that is valid
// UTF-8, and returns its contents: a substring of the body.
func (sc *batchScanner) str() (string, bool) {
	if !sc.next('"') {
		return "", false
	}
	for j := sc.i; j < len(sc.s); {
		switch c := sc.s[j]; {
		case c == '"':
			v := sc.s[sc.i:j]
			sc.i = j + 1
			return v, true
		case c == '\\' || c < ' ':
			return "", false
		case c < utf8.RuneSelf:
			j++
		default:
			r, size := utf8.DecodeRuneInString(sc.s[j:])
			if r == utf8.RuneError && size == 1 {
				return "", false
			}
			j += size
		}
	}
	return "", false
}

// bool consumes true or false.
func (sc *batchScanner) bool() (bool, bool) {
	sc.skip()
	for _, lit := range [...]string{"false", "true"} {
		if strings.HasPrefix(sc.s[sc.i:], lit) {
			sc.i += len(lit)
			return lit == "true", true
		}
	}
	return false, false
}

// digits moves past a run of decimal digits and reports whether there was one.
func (sc *batchScanner) digits() bool {
	start := sc.i
	for sc.i < len(sc.s) && '0' <= sc.s[sc.i] && sc.s[sc.i] <= '9' {
		sc.i++
	}
	return sc.i > start
}

// number consumes a JSON number literal and returns it, or "" if there is
// none. strconv then reads it as encoding/json does: ParseInt refuses a
// fraction or an exponent, and a value out of range, as an int member does;
// ParseFloat rounds an underflow to zero and refuses an overflow.
func (sc *batchScanner) number() string {
	sc.skip()
	start := sc.i
	sc.accept('-')
	if !sc.accept('0') && !sc.digits() {
		return ""
	}
	if sc.accept('.') && !sc.digits() {
		return ""
	}
	if sc.accept('e') || sc.accept('E') {
		_ = sc.accept('+') || sc.accept('-')
		if !sc.digits() {
			return ""
		}
	}
	return sc.s[start:sc.i]
}

// pairs consumes a pairs array of one or more pairs.
func (sc *batchScanner) pairs(maxPairs int) ([]batchPair, bool) {
	if !sc.next('[') {
		return nil, false
	}
	pairs := make([]batchPair, 0, min(strings.Count(sc.s[sc.i:], "{"), maxPairs))
	for {
		var p batchPair
		var seen uint8 // 1 for src, 2 for dst
		if !sc.next('{') {
			return nil, false
		}
		for seen != 3 {
			if seen != 0 && !sc.next(',') {
				return nil, false
			}
			key, ok := sc.str()
			if !ok || !sc.next(':') {
				return nil, false
			}
			switch {
			case key == "src" && seen&1 == 0:
				seen |= 1
				p.Src, ok = sc.str()
			case key == "dst" && seen&2 == 0:
				seen |= 2
				p.Dst, ok = sc.str()
			default:
				return nil, false
			}
			if !ok {
				return nil, false
			}
		}
		if !sc.next('}') {
			return nil, false
		}
		pairs = append(pairs, p)
		if sc.next(']') {
			return pairs, true
		}
		if !sc.next(',') {
			return nil, false
		}
	}
}

// decodeBatchJSON parses a batch body with encoding/json: one object, no
// unknown member, nothing but whitespace after it.
func decodeBatchJSON(data []byte) (*batchPathsRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req batchPathsRequest
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest("invalid JSON body: %v", err)
	}
	if dec.More() {
		return nil, badRequest("trailing data after JSON body")
	}
	return &req, nil
}

// check validates a parsed request: its snapshot selection first, then the
// pair count, then each pair in order.
func (req *batchPathsRequest) check(maxPairs int, times []time.Time) (snapSpec, error) {
	form := snapForm{mode: req.Mode, snap: req.Snap, t: req.T, fault: req.Fault, fraction: req.Fraction, seed: req.FaultSeed}
	spec, err := form.spec(times, "faultSeed")
	if err != nil {
		return snapSpec{}, err
	}
	if len(req.Pairs) == 0 {
		return snapSpec{}, badRequest("pairs must be a non-empty array")
	}
	if len(req.Pairs) > maxPairs {
		return snapSpec{}, badRequest("too many pairs: %d exceeds the per-request limit %d", len(req.Pairs), maxPairs)
	}
	dup := firstRepeat(req.Pairs)
	for i, p := range req.Pairs {
		if p.Src == "" || p.Dst == "" {
			return snapSpec{}, badRequest("pairs[%d]: src and dst are required", i)
		}
		if p.Src == p.Dst {
			return snapSpec{}, badRequest("pairs[%d]: src equals dst (%q)", i, p.Src)
		}
		if i == dup {
			return snapSpec{}, badRequest("pairs[%d]: duplicate pair %q → %q", i, p.Src, p.Dst)
		}
	}
	return spec, nil
}

// pairHashSeed seeds the pair hashes of firstRepeat; which seed only changes
// how often two distinct pairs are compared.
var pairHashSeed = maphash.MakeSeed()

// pairSlot is one slot of firstRepeat's table: the low bits of a pair's
// hash and its index plus one, 0 when the slot is empty.
type pairSlot struct {
	hash uint32
	at   int32
}

// firstRepeat returns the index of the first pair equal to an earlier one,
// or len(pairs) when every pair is distinct. The pairs go, in order, into an
// open-addressed table of at least twice their count — on the stack for a
// batch of up to 256 pairs — and a pair whose probe meets an equal one is the
// first repeat. It hashes each name once and allocates nothing per pair.
func firstRepeat(pairs []batchPair) int {
	var buf [512]pairSlot
	size := len(buf)
	for size < 2*len(pairs) {
		size *= 2
	}
	table := buf[:]
	if size > len(buf) {
		table = make([]pairSlot, size)
	}
	mask := uint64(size - 1)
	for i, p := range pairs {
		h := maphash.String(pairHashSeed, p.Src)*31 + maphash.String(pairHashSeed, p.Dst)
		for at := h & mask; ; at = (at + 1) & mask {
			slot := &table[at]
			if slot.at == 0 {
				*slot = pairSlot{hash: uint32(h), at: int32(i + 1)}
				break
			}
			if slot.hash == uint32(h) && pairs[slot.at-1] == p {
				return i
			}
		}
	}
	return len(pairs)
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
// of rows. The envelope goes through encoding/json; the rows are a served
// answer's and have their own writer (wire.go): each is appended already
// indented, as json.MarshalIndent gives it for the same batchPathEntry, into
// a buffer reserved once. FuzzBatchEntryJSON holds the row writer to that.

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
	body, err := readBatchBody(r)
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
		if rs.orc, err = s.oracleFor(ctx, rs.spec, rs.view); err != nil {
			return err
		}
	}
	ost := rs.orc.Stats()
	head, err := json.MarshalIndent(batchPathsResponse{
		Time: spec.t, Mode: spec.mode.String(), Fault: spec.faultText(), Degraded: rs.degraded,
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
	writeBody(w, out)
	return nil
}

// readBatchBody reads a batch body, up to one byte past maxBatchBodyBytes so
// that an oversized one shows. A body whose length the client declared is
// read into one buffer of that size (clamped to the limit) with a byte to
// spare, so the read that finds the end needs no room made for it. A body of
// unknown length (chunked) grows from 512 bytes, as io.ReadAll's does.
func readBatchBody(r *http.Request) ([]byte, error) {
	size := int64(512)
	if r.ContentLength >= 0 {
		size = min(r.ContentLength, maxBatchBodyBytes+1) + 1
	}
	body := io.LimitReader(r.Body, maxBatchBodyBytes+1)
	b := make([]byte, 0, size)
	for {
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// oracleCall is one in-flight singleflight oracle build.
type oracleCall struct {
	done chan struct{}
	o    *oracle.Oracle
	err  error
}

// oracleFor builds the distance oracle for spec's snapshot view v — resolve
// found none attached — at most once per spec at a time: concurrent batches
// against the same cold snapshot elect one builder and share its result. A
// what-if's oracle is built on its parent's network with the cut banned. A
// successful build is attached to the snapshot-cache entry
// (snapcache.Attach), so the oracle rides the snapshot's own LRU
// lifecycle; the attach is a no-op if v is not the resident view (a
// degraded fallback's, or the entry was evicted meanwhile) — the oracle still
// answers this request, it just isn't pinned.
func (s *Server) oracleFor(ctx context.Context, spec snapSpec, v *graph.View) (*oracle.Oracle, error) {
	s.oracleMu.Lock()
	if cl, inflight := s.oracleInflight[spec]; inflight {
		s.oracleMu.Unlock()
		select {
		case <-cl.done:
			if cl.err == nil && !cl.o.Valid(v) {
				// The leader built against a different view (a degraded
				// fallback raced the key's own build, or an eviction and
				// rebuild). Rare: build our own, unshared and unattached —
				// correctness over reuse.
				return s.buildOracle(ctx, spec, v, false)
			}
			return cl.o, cl.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	cl := &oracleCall{done: make(chan struct{})}
	s.oracleInflight[spec] = cl
	s.oracleMu.Unlock()
	go func() {
		// Detached from the leader's cancellation, like snapshot builds:
		// followers with live contexts still want the result, and the next
		// batch for this key certainly does.
		cl.o, cl.err = s.buildOracle(context.WithoutCancel(ctx), spec, v, true)
		s.oracleMu.Lock()
		delete(s.oracleInflight, spec)
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
func (s *Server) buildOracle(ctx context.Context, spec snapSpec, v *graph.View, attach bool) (*oracle.Oracle, error) {
	start := time.Now()
	o, err := oracle.Build(ctx, v.N, v.Cut)
	if err != nil {
		telemetry.EmitEvent(ctx, telemetry.CatServe, telemetry.SevError,
			"oracle build failed",
			telemetry.Str("key", spec.String()),
			telemetry.Str("err", err.Error()))
		return nil, err
	}
	s.oracleBuilds.Add(1)
	if attach {
		s.cache.Attach(spec, v, o)
	}
	telemetry.EmitEvent(ctx, telemetry.CatServe, telemetry.SevInfo,
		"oracle built",
		telemetry.Str("key", spec.String()),
		telemetry.Int64("durMs", time.Since(start).Milliseconds()),
		telemetry.Int64("sources", int64(o.Sources())))
	return o, nil
}
