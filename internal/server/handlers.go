package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"leosim/internal/core"
	"leosim/internal/fault"
	"leosim/internal/graph"
	"leosim/internal/oracle"
	"leosim/internal/snapcache"
	"leosim/internal/telemetry"
	"leosim/internal/version"
)

// statusClientClosedRequest is nginx's convention for "the client went away
// before we could answer" — there is no standard HTTP code for it.
const statusClientClosedRequest = 499

// testHookLatencySnapshot, when non-nil, runs between snapshots of a
// /v1/latency scan. Lifecycle tests park requests here to hold them
// in-flight deterministically (drain, shedding, cancellation).
var testHookLatencySnapshot func()

// ---- the serving pipeline: spec → resolve → answer -----------------------
//
// Every served path question takes the same three steps (DESIGN.md §3): a
// front-end fills a snapForm and the one validator turns it into a snapSpec;
// resolve fetches that snapshot and looks up its attached oracle, once;
// answer routes a city pair over the result.

// snapSpec names the snapshot a question is asked of: the instant, the
// connectivity mode and the fault fingerprint ("" = healthy).
type snapSpec struct {
	t    time.Time
	mode core.Mode
	mask string
}

// snapForm is a snapshot selection as the client wrote it. The GET endpoints
// fill one from their query parameters (querySpec), POST /v1/paths from its
// decoded body (decodeBatchPaths). snap indexes the schedule, t takes RFC3339 or a duration
// offset from the simulation epoch ("90m"), neither means the first
// snapshot; the fault triple defaults to fraction 0.1, seed 1.
type snapForm struct {
	mode     string
	snap     *int
	t        string
	fault    string
	fraction *float64
	seed     *int64
}

// querySpec is the GET front-end: ?mode=&snap=|t=&fault=&fraction=
// &fault-seed= → validated spec. Only what a query string can get wrong that
// a JSON body cannot — a number that does not parse — is judged here; the
// rest is snapForm.spec's.
func querySpec(q url.Values, times []time.Time) (snapSpec, error) {
	f := snapForm{mode: q.Get("mode"), t: q.Get("t"), fault: q.Get("fault")}
	if v := q.Get("snap"); v != "" {
		i, err := strconv.Atoi(v)
		if err != nil {
			return snapSpec{}, badRequest("snap must be an index in [0,%d)", len(times))
		}
		f.snap = &i
	}
	if v := q.Get("fraction"); v != "" {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return snapSpec{}, badRequest("fraction must be a number in [0,1]")
		}
		f.fraction = &x
	}
	if v := q.Get("fault-seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return snapSpec{}, badRequest("fault-seed must be an integer")
		}
		f.seed = &n
	}
	return f.spec(times, "fault-seed")
}

// spec validates the form against the snapshot schedule. It is the one
// validator behind both front-ends and a pure function of its arguments;
// seedParam is how the calling front-end spells the seed parameter, for the
// one message that names it.
func (f snapForm) spec(times []time.Time, seedParam string) (snapSpec, error) {
	var spec snapSpec
	if f.mode != "" && spec.mode.UnmarshalText([]byte(f.mode)) != nil {
		return snapSpec{}, badRequest("mode must be %q or %q", core.BP, core.Hybrid)
	}
	switch {
	case f.snap != nil && f.t != "":
		return snapSpec{}, badRequest("snap and t are mutually exclusive")
	case f.snap != nil:
		if *f.snap < 0 || *f.snap >= len(times) {
			return snapSpec{}, badRequest("snap must be an index in [0,%d)", len(times))
		}
		spec.t = times[*f.snap]
	case f.t == "":
		spec.t = times[0]
	default:
		if t, err := time.Parse(time.RFC3339, f.t); err == nil {
			spec.t = t.UTC()
		} else if d, err := time.ParseDuration(f.t); err == nil && d >= 0 {
			spec.t = times[0].Add(d)
		} else {
			return snapSpec{}, badRequest("t must be RFC3339 or a non-negative duration offset like 90m")
		}
	}
	if f.fault == "" {
		if f.fraction != nil || f.seed != nil {
			return snapSpec{}, badRequest("fraction/%s require fault=<scenario>", seedParam)
		}
		return spec, nil
	}
	if !fault.Scenario(f.fault).Valid() {
		return snapSpec{}, badRequest("fault must be one of %v", fault.Scenarios())
	}
	frac, seed := 0.1, int64(1)
	if f.fraction != nil {
		if frac = *f.fraction; frac < 0 || frac > 1 {
			return snapSpec{}, badRequest("fraction must be a number in [0,1]")
		}
	}
	if f.seed != nil {
		seed = *f.seed
	}
	// The fingerprint is the cache key's Mask; realizeMask is its inverse.
	spec.mask = fmt.Sprintf("%s:%g:%d", f.fault, frac, seed)
	return spec, nil
}

// cacheKey assembles the snapshot-cache key. Scenario namespaces by
// constellation/scale/mode so one cache could in principle front several
// sims; Mask is the fault fingerprint.
func (s *Server) cacheKey(spec snapSpec) snapcache.Key {
	return snapcache.Key{
		Scenario: s.scenario + "/" + spec.mode.String(),
		Time:     spec.t,
		Mask:     spec.mask,
	}
}

// buildSnapshot is the cache's BuildFunc: it re-derives mode and fault mask
// from the key. A healthy key is the sim's shared snapshot, whole. A masked
// key is a view of this cache's own healthy entry (resident after priming,
// singleflight-built otherwise): the same network, and the cut of its links
// the mask removes — a few KB, where a materialized copy would own a link
// list and a CSR — so a what-if repeats no scan and copies no graph. Keeping
// the key → build mapping pure is what makes cached snapshots trustworthy: two
// requests that agree on the key are guaranteed the same view.
func (s *Server) buildSnapshot(ctx context.Context, key snapcache.Key) (*graph.View, error) {
	var mode core.Mode
	if err := mode.UnmarshalText([]byte(strings.TrimPrefix(key.Scenario, s.scenario+"/"))); err != nil {
		return nil, fmt.Errorf("server: cache key %s: %w", key, err)
	}
	if key.Mask == "" {
		n, err := s.cfg.Sim.BuildNetworkAt(ctx, key.Time, mode, nil)
		if err != nil {
			return nil, err
		}
		return &graph.View{N: n}, nil
	}
	outages, err := s.realizeMask(key.Mask, key.Time)
	if err != nil {
		return nil, err
	}
	parentKey := snapcache.Key{Scenario: key.Scenario, Time: key.Time}
	parent, err := s.cache.Get(ctx, parentKey)
	var boe *snapcache.BreakerOpenError
	if errors.As(err, &boe) {
		// This build is the breaker's half-open probe, beside which the cache
		// starts no second build: build the parent here so it can succeed.
		parent, err = s.buildSnapshot(ctx, parentKey)
	}
	if err != nil {
		return nil, err
	}
	return &graph.View{N: parent.N, Cut: outages.Cut(parent.N)}, nil
}

// realizeMask turns a fault fingerprint "scenario:fraction:seed" back into
// the concrete outages of instant t. Realization is deterministic (seeded),
// so the fingerprint and the instant are a complete description of the
// failure set.
func (s *Server) realizeMask(mask string, t time.Time) (*fault.Outages, error) {
	parts := strings.Split(mask, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("server: malformed fault mask %q", mask)
	}
	frac, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return nil, fmt.Errorf("server: fault mask fraction: %w", err)
	}
	seed, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("server: fault mask seed: %w", err)
	}
	plan, err := fault.ForScenario(fault.Scenario(parts[0]), frac, seed)
	if err != nil {
		return nil, err
	}
	return plan.RealizeAt(s.cfg.Sim.Const, len(s.cfg.Sim.Seg.Terminals), t)
}

// snapshot fetches the network for spec (key is its cache key), degrading
// instead of failing wherever a resident snapshot can absorb a build failure.
// The string names the fallback that saved the response from a 5xx: ""
// (none), "stale-cache" or "bp-fallback". Context expiry is the client's own
// doing and never degrades.
//
// "stale-cache" serves the key's own snapshot after its build failed. The key
// was not resident when Get missed, so this rung fires when another writer
// lands it while this request's build fails: the late adoption of an earlier
// timed-out build, or the primer's Put. The copy is the same pure function of
// the key as the failed build; clients know the rung by this wire value.
// "bp-fallback" answers a failed hybrid build from the resident BP-only
// snapshot of the same instant — conservative routing: BP paths exist in the
// hybrid graph too.
func (s *Server) snapshot(ctx context.Context, spec snapSpec, key snapcache.Key) (*graph.View, string, error) {
	v, err := s.cache.Get(ctx, key)
	if err == nil || ctx.Err() != nil {
		return v, "", err
	}
	if v, ok := s.cache.GetCached(key); ok {
		s.noteDegraded(ctx, key.String(), "stale-cache", err)
		return v, "stale-cache", nil
	}
	if spec.mode == core.Hybrid {
		spec.mode = core.BP
		if v, ok := s.cache.GetCached(s.cacheKey(spec)); ok {
			s.noteDegraded(ctx, key.String(), "bp-fallback", err)
			return v, "bp-fallback", nil
		}
	}
	return nil, "", err
}

// noteDegraded accounts one fallback serve: the counter, the /healthz
// recency mark, and a flight-recorder event whose trace ID joins the
// degraded response to the build failure it absorbed.
func (s *Server) noteDegraded(ctx context.Context, key, fallback string, cause error) {
	s.degraded.Add(1)
	s.lastDegraded.Store(time.Now().UnixNano())
	telemetry.EmitEvent(ctx, telemetry.CatServe, telemetry.SevWarn,
		"degraded serve: fallback snapshot absorbed a build failure",
		telemetry.Str("key", key),
		telemetry.Str("fallback", fallback),
		telemetry.Str("cause", cause.Error()))
}

// resolved is a snapSpec made concrete: its cache key, the view of the
// snapshot (a what-if's is its healthy parent's network and the mask's cut),
// the fallback that supplied it ("" for the key's own snapshot, as in
// snapshot), and the distance oracle attached to it — nil when none is, in
// which case answers come from the healthy parent's oracle where the fault
// missed the route and from the live kernel otherwise.
type resolved struct {
	key      snapcache.Key
	view     *graph.View
	degraded string
	orc      *oracle.Oracle
}

// resolve fetches (or builds, once, possibly degraded) spec's snapshot and
// looks up the oracle the primer or an earlier batch attached to it. This is
// the only attachment lookup on the serve path, so oracleHits counts exactly
// once per resolved snapshot that had an oracle waiting. resolve never
// builds an oracle; only batches (oracleFor) and the primer pay that.
func (s *Server) resolve(ctx context.Context, spec snapSpec) (resolved, error) {
	rs := resolved{key: s.cacheKey(spec)}
	var err error
	if rs.view, rs.degraded, err = s.snapshot(ctx, spec, rs.key); err != nil {
		return resolved{}, err
	}
	if o, v := s.attachedOracle(rs.key); o != nil && v == rs.view {
		s.oracleHits.Add(1)
		rs.orc = o
	}
	return rs, nil
}

// attachedOracle returns the oracle riding key's resident cache entry and the
// view it describes, or nils when the entry is gone or carries none.
func (s *Server) attachedOracle(key snapcache.Key) (*oracle.Oracle, *graph.View) {
	if aux, v, ok := s.cache.Attachment(key); ok {
		if o, isOracle := aux.(*oracle.Oracle); isOracle && o.Valid(v) {
			return o, v
		}
	}
	return nil, nil
}

// answer routes city src → city dst over a resolved snapshot: from the
// attached oracle when there is one — identical to the kernel's answer, proven
// by the oracle differential battery, at a fraction of a full search — and
// otherwise from the healthy parent's tree if the fault left that route alone
// (survivingRoute), or by a live kernel search of the view. With route=false
// the answer carries no Route, which lets an oracle give it from its distance
// and hop tables: two reads, no path reconstructed, nothing allocated. Only
// route=true walks the stored tree and names the nodes.
func (s *Server) answer(ctx context.Context, rs resolved, src, dst int, route bool) (core.PathQuery, error) {
	if rs.orc == nil {
		q, ok := s.survivingRoute(rs, src, dst)
		if ok {
			s.survivingAnswers.Add(1)
		} else {
			s.kernelAnswers.Add(1)
			var err error
			if q, err = s.cfg.Sim.PathIn(ctx, *rs.view, src, dst); err != nil {
				return core.PathQuery{}, err
			}
		}
		if !route {
			q.Route = nil
		}
		return *q, nil
	}
	if !route {
		d := rs.orc.DistMs(src, dst)
		if math.IsInf(d, 1) {
			return core.PathQuery{}, nil
		}
		return core.PathQuery{Reachable: true, RTTMs: 2 * d, OneWayMs: d, Hops: rs.orc.Hops(src, dst)}, nil
	}
	p, ok := rs.orc.Query(src, dst)
	if !ok {
		return core.PathQuery{}, nil
	}
	return *core.PathQueryOf(rs.view.N, p), nil
}

// survivingRoute answers a what-if from the healthy day: rs is a masked
// snapshot with no oracle of its own, and the healthy snapshot of the same
// instant and mode has one, over the network rs views. The view is a subgraph
// of that network — same node ids, same link delays — so a pair unreachable
// there is unreachable here, and if the cut severs no hop of the healthy tree
// path, that path is node for node what the kernel would find in the view,
// ties included (DESIGN.md §7). ok is false when the fault cut the route, or
// there is no healthy oracle of rs's network to ask (none primed, or a
// bp-fallback view under a hybrid key); the kernel answers then.
func (s *Server) survivingRoute(rs resolved, src, dst int) (q *core.PathQuery, ok bool) {
	if rs.key.Mask == "" {
		return nil, false
	}
	o, healthy := s.attachedOracle(snapcache.Key{Scenario: rs.key.Scenario, Time: rs.key.Time})
	if o == nil || healthy.N != rs.view.N {
		return nil, false
	}
	p, reachable := o.Query(src, dst)
	if !reachable {
		return &core.PathQuery{}, true
	}
	if rs.view.Cut.Severs(p) {
		return nil, false
	}
	return core.PathQueryOf(rs.view.N, p), true
}

// ---- request parsing ----------------------------------------------------

type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func badRequest(format string, args ...interface{}) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

type notFoundError struct{ msg string }

func (e *notFoundError) Error() string { return e.msg }

// parseCityPair resolves the required ?src= and ?dst= city names.
func (s *Server) parseCityPair(q url.Values) (src, dst int, err error) {
	if src, err = s.parseCity(q, "src"); err != nil {
		return 0, 0, err
	}
	dst, err = s.parseCity(q, "dst")
	return src, dst, err
}

// parseCity resolves a required city-name parameter to its index.
func (s *Server) parseCity(q url.Values, param string) (int, error) {
	name := q.Get(param)
	if name == "" {
		return 0, badRequest("%s=<city name> is required", param)
	}
	idx, ok := s.cfg.Sim.FindCity(name)
	if !ok {
		return 0, &notFoundError{msg: fmt.Sprintf("unknown city %q", name)}
	}
	return idx, nil
}

// ---- responses ----------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone — nothing left to do
}

// writeErrorTraced writes an error body carrying the request's trace ID, so
// the response joins to the flight-recorder events that explain it.
func writeErrorTraced(w http.ResponseWriter, status int, msg string, trace telemetry.TraceID) {
	body := map[string]string{"error": msg}
	if trace != 0 {
		body["traceId"] = trace.String()
	}
	writeJSON(w, status, body)
}

// fail maps an error to its status code and counts it. The ladder mirrors
// the failure modes the admission pipeline produces: client-side parse
// errors, unknown cities, an open build breaker (503 + Retry-After — the
// fault is transient by construction), a cancelled client, an expired
// deadline, and — only then — a genuine server fault. Every error body
// carries the request's trace ID; server-fault classes also land in the
// flight recorder under that ID.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, err error) {
	ctx := r.Context()
	trace := telemetry.TraceIDFrom(ctx)
	var br *badRequestError
	var nf *notFoundError
	var boe *snapcache.BreakerOpenError
	switch {
	case errors.As(err, &br):
		s.badRequests.Add(1)
		writeErrorTraced(w, http.StatusBadRequest, br.msg, trace)
	case errors.As(err, &nf):
		s.notFound.Add(1)
		writeErrorTraced(w, http.StatusNotFound, nf.msg, trace)
	case errors.As(err, &boe):
		s.breakerTrips.Add(1)
		telemetry.EmitEvent(ctx, telemetry.CatServe, telemetry.SevWarn,
			"breaker rejected request: builds suspended",
			telemetry.Int64("retryAfterMs", boe.RetryAfter.Milliseconds()))
		w.Header().Set("Retry-After", retryAfterHeader(s.retryAfter(boe.RetryAfter)))
		writeErrorTraced(w, http.StatusServiceUnavailable, "snapshot builds suspended: "+err.Error(), trace)
	case errors.Is(err, context.Canceled):
		s.cancelled.Add(1)
		writeErrorTraced(w, statusClientClosedRequest, "request cancelled by client", trace)
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
		telemetry.EmitEvent(ctx, telemetry.CatServe, telemetry.SevError,
			"request deadline exceeded", telemetry.Str("err", err.Error()))
		writeErrorTraced(w, http.StatusGatewayTimeout, "request deadline exceeded", trace)
	default:
		s.internalErrors.Add(1)
		telemetry.EmitEvent(ctx, telemetry.CatServe, telemetry.SevError,
			"internal error", telemetry.Str("err", err.Error()))
		writeErrorTraced(w, http.StatusInternalServerError, err.Error(), trace)
	}
}

// ---- endpoints ----------------------------------------------------------

type pathResponse struct {
	Time     time.Time      `json:"time"`
	Mode     string         `json:"mode"`
	Src      string         `json:"src"`
	Dst      string         `json:"dst"`
	Fault    string         `json:"fault,omitempty"`
	Degraded string         `json:"degraded,omitempty"`
	Path     core.PathQuery `json:"path"`
}

// handlePath answers GET /v1/path?src=&dst=[&snap=|&t=][&mode=][&fault=...]:
// the route, RTT and hop breakdown for one city pair at one snapshot.
func (s *Server) handlePath(w http.ResponseWriter, r *http.Request) error {
	ctx := r.Context()
	q := r.URL.Query()
	src, dst, err := s.parseCityPair(q)
	if err != nil {
		return err
	}
	spec, err := querySpec(q, s.times)
	if err != nil {
		return err
	}
	rs, err := s.resolve(ctx, spec)
	if err != nil {
		return err
	}
	path, err := s.answer(ctx, rs, src, dst, true)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, pathResponse{
		Time: spec.t, Mode: spec.mode.String(), Fault: spec.mask, Degraded: rs.degraded,
		Src: s.cfg.Sim.CityName(src), Dst: s.cfg.Sim.CityName(dst),
		Path: path,
	})
	return nil
}

type latencySample struct {
	Time      time.Time `json:"time"`
	Reachable bool      `json:"reachable"`
	RTTMs     float64   `json:"rttMs,omitempty"`
}

type latencyResponse struct {
	Mode  string `json:"mode"`
	Src   string `json:"src"`
	Dst   string `json:"dst"`
	Fault string `json:"fault,omitempty"`
	// Degraded: at least one sample needed a fallback snapshot; the value is
	// the first fallback used.
	Degraded string          `json:"degraded,omitempty"`
	Samples  []latencySample `json:"samples"`
	Summary  struct {
		MinMs     float64 `json:"minMs"`
		MaxMs     float64 `json:"maxMs"`
		MeanMs    float64 `json:"meanMs"`
		RangeMs   float64 `json:"rangeMs"`
		Reachable int     `json:"reachableSnapshots"`
		Total     int     `json:"totalSnapshots"`
	} `json:"summary"`
}

// handleLatency answers GET /v1/latency?src=&dst=[&mode=][&fault=...]: the
// pair's RTT across the whole simulated day (the per-pair view behind the
// paper's §4 variability figures). The request context is checked between
// snapshots, so a cancelled scan stops within one snapshot's work.
func (s *Server) handleLatency(w http.ResponseWriter, r *http.Request) error {
	ctx := r.Context()
	q := r.URL.Query()
	// The scan covers the whole schedule, so a snapshot selection is not
	// read (nor judged).
	q.Del("snap")
	q.Del("t")
	src, dst, err := s.parseCityPair(q)
	if err != nil {
		return err
	}
	spec, err := querySpec(q, s.times)
	if err != nil {
		return err
	}

	resp := latencyResponse{
		Mode: spec.mode.String(), Fault: spec.mask,
		Src: s.cfg.Sim.CityName(src), Dst: s.cfg.Sim.CityName(dst),
		Samples: make([]latencySample, 0, len(s.times)),
	}
	sum := 0.0
	resp.Summary.MinMs = -1
	for _, t := range s.times {
		if testHookLatencySnapshot != nil {
			testHookLatencySnapshot()
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		spec.t = t
		rs, err := s.resolve(ctx, spec)
		if err != nil {
			return err
		}
		path, err := s.answer(ctx, rs, src, dst, false)
		if err != nil {
			return err
		}
		if resp.Degraded == "" {
			resp.Degraded = rs.degraded
		}
		sample := latencySample{Time: t, Reachable: path.Reachable}
		if path.Reachable {
			sample.RTTMs = path.RTTMs
			sum += path.RTTMs
			resp.Summary.Reachable++
			if resp.Summary.MinMs < 0 || path.RTTMs < resp.Summary.MinMs {
				resp.Summary.MinMs = path.RTTMs
			}
			if path.RTTMs > resp.Summary.MaxMs {
				resp.Summary.MaxMs = path.RTTMs
			}
		}
		resp.Samples = append(resp.Samples, sample)
	}
	resp.Summary.Total = len(s.times)
	if resp.Summary.Reachable > 0 {
		resp.Summary.MeanMs = sum / float64(resp.Summary.Reachable)
		resp.Summary.RangeMs = resp.Summary.MaxMs - resp.Summary.MinMs
	} else {
		resp.Summary.MinMs = 0
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

type reachabilityResponse struct {
	Time         time.Time               `json:"time"`
	Mode         string                  `json:"mode"`
	Src          string                  `json:"src,omitempty"`
	Fault        string                  `json:"fault,omitempty"`
	Degraded     string                  `json:"degraded,omitempty"`
	Reachability *core.ReachabilityQuery `json:"reachability"`
}

// handleReachability answers GET /v1/reachability[?src=][&snap=|&t=][&mode=]
// [&fault=...]: component structure and stranded satellites at one
// snapshot, optionally from one source city's perspective.
func (s *Server) handleReachability(w http.ResponseWriter, r *http.Request) error {
	ctx := r.Context()
	q := r.URL.Query()
	spec, err := querySpec(q, s.times)
	if err != nil {
		return err
	}
	src, srcName := -1, ""
	if q.Get("src") != "" {
		if src, err = s.parseCity(q, "src"); err != nil {
			return err
		}
		srcName = s.cfg.Sim.CityName(src)
	}
	// Not a path question: the snapshot alone, no oracle lookup.
	v, degraded, err := s.snapshot(ctx, spec, s.cacheKey(spec))
	if err != nil {
		return err
	}
	reach, err := s.cfg.Sim.ReachabilityIn(ctx, *v, src)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, reachabilityResponse{
		Time: spec.t, Mode: spec.mode.String(), Src: srcName, Fault: spec.mask,
		Degraded: degraded, Reachability: reach,
	})
	return nil
}

type cacheStatsJSON struct {
	Hits       int64   `json:"hits"`
	Misses     int64   `json:"misses"`
	Builds     int64   `json:"builds"`
	Evictions  int64   `json:"evictions"`
	Errors     int64   `json:"errors"`
	Timeouts   int64   `json:"buildTimeouts"`
	LateBuilds int64   `json:"lateBuilds"`
	FastFails  int64   `json:"fastFails"`
	HitRate    float64 `json:"hitRate"`
	Resident   int     `json:"resident"`
}

// breakerJSON is the live circuit-breaker position in /metrics and
// /v1/snapshots: the state name, the consecutive-failure streak feeding the
// trip threshold, and the seconds until a retry is worth attempting.
type breakerJSON struct {
	State         string  `json:"state"`
	FailureStreak int64   `json:"failureStreak"`
	RetryAfterSec float64 `json:"retryAfterSec,omitempty"`
	Opens         int64   `json:"opens"`
}

func (s *Server) cacheStatsJSON() cacheStatsJSON {
	st := s.cache.Stats()
	return cacheStatsJSON{
		Hits: st.Hits, Misses: st.Misses, Builds: st.Builds,
		Evictions: st.Evictions, Errors: st.Errors, Timeouts: st.Timeouts,
		LateBuilds: st.LateBuilds, FastFails: st.FastFails,
		HitRate: st.HitRate(), Resident: s.cache.Len(),
	}
}

func (s *Server) breakerJSON() breakerJSON {
	br := s.cache.Breaker()
	return breakerJSON{
		State:         br.State.String(),
		FailureStreak: br.FailureStreak,
		RetryAfterSec: br.RetryAfter.Seconds(),
		Opens:         s.cache.Stats().BreakerOpens,
	}
}

// handleSnapshots answers GET /v1/snapshots: the queryable snapshot
// schedule plus live snapshot-cache statistics.
func (s *Server) handleSnapshots(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Scenario     string         `json:"scenario"`
		SnapshotStep string         `json:"snapshotStep"`
		Times        []time.Time    `json:"times"`
		Cache        cacheStatsJSON `json:"cache"`
	}{
		Scenario:     s.scenario,
		SnapshotStep: s.cfg.Sim.Scale.SnapshotStep.String(),
		Times:        s.times,
		Cache:        s.cacheStatsJSON(),
	})
}

// errorBudgetJSON summarizes how much failure the serve path has absorbed or
// surfaced: total requests, hard failures (5xx: internal errors, deadline
// timeouts, breaker rejects), sheds, degraded serves, and the resulting
// availability ratio.
type errorBudgetJSON struct {
	Requests     int64   `json:"requests"`
	Errors5xx    int64   `json:"errors5xx"`
	Shed         int64   `json:"shed"`
	Degraded     int64   `json:"degraded"`
	Availability float64 `json:"availability"`
}

func (s *Server) errorBudgetJSON() errorBudgetJSON {
	eb := errorBudgetJSON{
		Requests:  s.requests.Value(),
		Errors5xx: s.internalErrors.Value() + s.timeouts.Value() + s.breakerTrips.Value(),
		Shed:      s.shed.Value(),
		Degraded:  s.degraded.Value(),
	}
	eb.Availability = 1
	if eb.Requests > 0 {
		eb.Availability = 1 - float64(eb.Errors5xx)/float64(eb.Requests)
	}
	return eb
}

// degradedWindow is how long after a fallback serve /healthz keeps reporting
// "degraded": long enough for a probe on a typical scrape interval to see it.
const degradedWindow = time.Minute

// handleHealthz answers GET /healthz: liveness plus the build identity, so a
// fleet can be audited for what it is actually running, plus the self-healing
// posture — breaker state and the error-budget summary.
// Status is "degraded" (still 200: the process is healthy, the answers are
// second-best) while the breaker is not closed or a fallback serve happened
// within the last minute.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	br := s.breakerJSON()
	status := "ok"
	if last := s.lastDegraded.Load(); br.State != snapcache.BreakerClosed.String() ||
		(last != 0 && time.Since(time.Unix(0, last)) < degradedWindow) {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, struct {
		Status      string          `json:"status"`
		Version     version.Info    `json:"version"`
		Sim         string          `json:"sim"`
		UptimeSec   float64         `json:"uptimeSec"`
		Breaker     breakerJSON     `json:"breaker"`
		ErrorBudget errorBudgetJSON `json:"errorBudget"`
	}{
		Status:      status,
		Version:     version.Get(),
		Sim:         s.cfg.Sim.String(),
		UptimeSec:   time.Since(s.started).Seconds(),
		Breaker:     br,
		ErrorBudget: s.errorBudgetJSON(),
	})
}

// metricsResponse is the GET /metrics payload: this server's registry
// (request counters, cache gauges, per-route latency histograms), the
// snapshot-cache statistics, the process-wide pipeline-stage histograms
// (graph build, search, flow allocation, cache lookup — p50/p90/p99 each),
// and a runtime/metrics sample of the Go runtime.
type metricsResponse struct {
	Server  telemetry.RegistrySnapshot             `json:"server"`
	Cache   cacheStatsJSON                         `json:"cache"`
	Breaker breakerJSON                            `json:"breaker"`
	Stages  map[string]telemetry.HistogramSnapshot `json:"stages,omitempty"`
	Runtime telemetry.RuntimeStats                 `json:"runtime"`
}

// handleMetrics answers GET /metrics as one JSON object, or — with
// ?format=prometheus — in Prometheus text exposition format (this server's
// registry plus the process-global pipeline-stage histograms, all under the
// "leosim_" prefix). Server counters live in a per-server registry so
// several Server instances never share a namespace; the stage histograms
// come from the process-global telemetry registry New enabled.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.reg.WritePrometheus(w, "leosim_"); err != nil {
			return // client gone mid-scrape
		}
		if reg := telemetry.Active(); reg != nil {
			// The server registry records no stage spans of its own (those go
			// to the process-global registry), so the two exports never emit
			// the same family twice.
			reg.WritePrometheusStages(w, "leosim_") //nolint:errcheck
		}
		return
	}
	resp := metricsResponse{
		Server:  s.reg.Snapshot(),
		Cache:   s.cacheStatsJSON(),
		Breaker: s.breakerJSON(),
		Runtime: telemetry.SampleRuntime(),
	}
	if reg := telemetry.Active(); reg != nil {
		resp.Stages = reg.Snapshot().Stages
	}
	writeJSON(w, http.StatusOK, resp)
}
