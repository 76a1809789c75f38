// Package snapcache is a concurrency-safe cache of per-snapshot values. It is
// the shared substrate of the serving subsystem: many concurrent queries
// against the same constellation epoch must route over one graph built once,
// not once per request.
//
// Key and value are type parameters, Cache[K, V]; a key's String is for
// events and the build hook, never parsed back. The Sim (and the bench
// ledger) caches frozen networks under Key{Scenario, Time}, the server views
// of them under its validated request spec. Values are compared by ==, which
// for the pointers both use is identity — what Attach's guard and the
// first-writer rule rest on.
//
// A resident snapshot is final; entries leave only by eviction. The value for
// a key is a deterministic function of that key, so nothing can make a
// resident entry stale: there is no expiry and no refresh, and inserting a key
// that is already resident keeps the resident value (first writer wins).
// Self-healing is about build failure, which is real.
//
// Mechanisms, composing from plain caching to self-healing:
//
//   - Singleflight: concurrent Gets for the same key elect one builder; the
//     rest wait for its result. A waiter whose context expires gives up
//     early, but the build itself keeps running and populates the cache —
//     work already paid for is never thrown away.
//   - Bounded residency, attachments last: when a new key arrives at
//     capacity the victim is the least recently used entry that carries no
//     attachment — a value alone is a scan or a cut to bring back, an
//     attachment (a distance oracle) is work no single-path request repeats —
//     and the plain LRU entry once every resident entry carries one. Without
//     attachments this is a plain LRU.
//   - Build timeout: each build gets a deadline. A timed-out build fails
//     its waiters promptly, but if the build later completes anyway its
//     result is adopted into the cache (self-healing, not wasted).
//   - Circuit breaker: consecutive build failures trip the cache open;
//     further misses fail fast with a BreakerOpenError carrying a
//     Retry-After hint instead of hammering a broken backend. After a
//     cooldown one probe build half-opens the breaker; success closes it.
//     Resident entries keep serving throughout — the breaker only guards
//     *new* build work.
package snapcache

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"leosim/internal/telemetry"
)

// Keyer is what a cache key is: a comparable value — two Gets with equal keys
// always share one build and one cached value — with a String method that
// renders it for events, logs and the build hook.
type Keyer interface {
	comparable
	String() string
}

// Key is the key of a cache whose snapshots differ only by scenario and
// instant: the Sim's, and the bench ledger's, which keys its own cache so.
type Key struct {
	// Scenario namespaces the cache: constellation, scale, connectivity
	// mode — everything that changes the graph apart from time (e.g.
	// "starlink/reduced/hybrid").
	Scenario string
	// Time is the snapshot instant.
	Time time.Time
}

// String renders the key for logs and metrics.
func (k Key) String() string {
	return fmt.Sprintf("%s@%s", k.Scenario, k.Time.Format(time.RFC3339))
}

// BuildFunc constructs the value for a key. It runs at most once per key at
// a time (singleflight); the context is detached from any single caller's
// cancellation, so a build outlives the request that triggered it. A
// successful build returns a value other than V's zero value.
type BuildFunc[K Keyer, V comparable] func(ctx context.Context, key K) (V, error)

// Options tune a Cache.
type Options struct {
	// Capacity bounds resident entries (default 16; minimum 1).
	Capacity int
	// BuildTimeout bounds each build. A build that exceeds it fails its
	// waiters with context.DeadlineExceeded (feeding the breaker), but a
	// late successful result is still adopted into the cache. Zero means
	// no bound.
	BuildTimeout time.Duration
	// BreakerThreshold trips the circuit breaker after this many
	// consecutive build failures; zero disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before letting one
	// probe build through (default 5s when the breaker is enabled).
	BreakerCooldown time.Duration
	// BuildHook, when non-nil, runs at the start of every build (in the
	// build goroutine). An error or panic fails the build exactly as if
	// the BuildFunc had failed — the chaos-injection point. The context is
	// the build's detached context; it still carries the triggering
	// request's trace ID, so injected faults are joinable to requests; key
	// is the key's String.
	BuildHook func(ctx context.Context, key string) error
	// Clock overrides time.Now for breaker tests.
	Clock func() time.Time
}

// Stats are cumulative cache counters. Hits+Misses counts Gets; Builds
// counts invocations of the build function (Misses > Builds when
// singleflight coalesced concurrent misses).
type Stats struct {
	Hits, Misses, Builds, Evictions, Errors int64
	// Attachments counts successful Attach calls (derived artifacts —
	// e.g. distance oracles — keyed to entry lifecycles).
	Attachments int64
	// AttachMisses counts Attach calls rejected because the entry was gone
	// or holds a different network than the one the artifact was derived
	// from.
	AttachMisses int64
	// Primed counts networks offered ready-made via Put (cache priming)
	// rather than built on demand.
	Primed int64
	// Timeouts counts builds that exceeded BuildTimeout.
	Timeouts int64
	// LateBuilds counts timed-out builds whose eventual success was
	// adopted into the cache anyway.
	LateBuilds int64
	// FastFails counts Gets rejected by an open breaker without a build.
	FastFails int64
	// BreakerOpens counts closed→open transitions.
	BreakerOpens int64
}

// HitRate returns Hits/(Hits+Misses), or 0 before the first Get.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Info is what GetEx reports beside the value: nothing, as a resident entry
// is final. It exists for GetEx's callers.
type Info struct{}

// BreakerState is the circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed: builds flow normally.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen: one probe build is in flight; other misses fast-fail.
	BreakerHalfOpen
	// BreakerOpen: misses fast-fail until the cooldown elapses.
	BreakerOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return fmt.Sprintf("BreakerState(%d)", int32(s))
}

// BreakerStatus snapshots the breaker for metrics and Retry-After hints.
type BreakerStatus struct {
	State BreakerState
	// FailureStreak is the current run of consecutive build failures.
	FailureStreak int64
	// RetryAfter estimates when a build is worth attempting again: zero
	// when closed, the remaining cooldown when open.
	RetryAfter time.Duration
}

// BreakerOpenError is returned by Get when the circuit breaker rejects a
// build without attempting it.
type BreakerOpenError struct {
	// RetryAfter is the cooldown remaining before the next probe.
	RetryAfter time.Duration
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("snapcache: circuit breaker open (retry in %s)", e.RetryAfter.Round(time.Millisecond))
}

type entry[V comparable] struct {
	v    V
	elem *list.Element // position in the LRU list; Value is the key
	// aux is the attachment riding this entry (a derived artifact such as a
	// distance oracle built from v). It shares the entry's whole lifecycle:
	// v is never replaced, and eviction drops both — an attachment never
	// outlives, or mismatches, the snapshot it was derived from.
	aux any
}

// call is one in-flight singleflight build.
type call[V comparable] struct {
	done chan struct{}
	v    V
	err  error
}

// Cache is the snapshot cache. The zero value is not usable; call New.
type Cache[K Keyer, V comparable] struct {
	build        BuildFunc[K, V]
	hook         func(context.Context, string) error
	cap          int
	buildTimeout time.Duration
	brThreshold  int
	brCooldown   time.Duration
	now          func() time.Time

	mu       sync.Mutex
	entries  map[K]*entry[V]
	lru      *list.List // front = most recently used
	inflight map[K]*call[V]

	// Breaker state, guarded by mu.
	streak   int64 // consecutive build failures
	brOpen   bool
	brProbe  bool // a half-open probe build is in flight
	openedAt time.Time

	hits, misses, builds, evictions, errors atomic.Int64
	timeouts, lateBuilds, primed            atomic.Int64
	fastFails, breakerOpens                 atomic.Int64
	attachments, attachMisses               atomic.Int64
}

// New creates a cache that builds missing snapshots with build.
func New[K Keyer, V comparable](build BuildFunc[K, V], opts Options) *Cache[K, V] {
	if build == nil {
		panic("snapcache: nil BuildFunc")
	}
	if opts.Capacity < 1 {
		opts.Capacity = 16
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.BreakerThreshold > 0 && opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 5 * time.Second
	}
	return &Cache[K, V]{
		build:        build,
		hook:         opts.BuildHook,
		cap:          opts.Capacity,
		buildTimeout: opts.BuildTimeout,
		brThreshold:  opts.BreakerThreshold,
		brCooldown:   opts.BreakerCooldown,
		now:          opts.Clock,
		entries:      map[K]*entry[V]{},
		lru:          list.New(),
		inflight:     map[K]*call[V]{},
	}
}

// Get returns the cached value for key, building it (once, regardless of
// how many goroutines ask concurrently) on a miss. It returns ctx.Err()
// without a value if ctx is done before the build finishes; the build is
// not abandoned on behalf of one impatient caller.
func (c *Cache[K, V]) Get(ctx context.Context, key K) (V, error) {
	var zero V
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	// The span's stage is classified at the end — the lookup's outcome (hit,
	// singleflight wait, or leader miss) is not known at entry.
	sp := telemetry.StartSpan(ctx, telemetry.StageCacheHit)
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		c.hits.Add(1)
		v := e.v
		c.mu.Unlock()
		sp.EndAs(telemetry.StageCacheHit)
		return v, nil
	}
	c.misses.Add(1)
	// Someone else may already be building this snapshot; then wait for them.
	stage := telemetry.StageCacheWait
	cl, ok := c.inflight[key]
	if !ok {
		if allow, retry := c.allowBuildLocked(ctx); !allow {
			c.fastFails.Add(1)
			c.mu.Unlock()
			sp.EndAs(telemetry.StageCacheMiss)
			return zero, &BreakerOpenError{RetryAfter: retry}
		}
		cl = c.startBuildLocked(ctx, key)
		stage = telemetry.StageCacheMiss
	}
	c.mu.Unlock()
	defer sp.EndAs(stage)
	select {
	case <-cl.done:
		return cl.v, cl.err
	case <-ctx.Done():
		return zero, ctx.Err()
	}
}

// GetEx is Get with an empty Info, for callers that take the three-value form
// (the bench module's ledger times it); new code calls Get.
func (c *Cache[K, V]) GetEx(ctx context.Context, key K) (V, Info, error) {
	v, err := c.Get(ctx, key)
	return v, Info{}, err
}

// GetCached returns the resident entry for key, if there is one, without
// ever building. It is the degraded-fallback probe: "do we have *anything*
// usable for this key right now?". No counters and no LRU order move.
func (c *Cache[K, V]) GetCached(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	return e.v, true
}

// allowBuildLocked asks the breaker whether a build may start now. When it
// may not, the returned duration is the caller-facing Retry-After hint.
func (c *Cache[K, V]) allowBuildLocked(ctx context.Context) (bool, time.Duration) {
	if c.brThreshold <= 0 || !c.brOpen {
		return true, 0
	}
	if c.brProbe {
		// A probe is already in flight; its outcome decides the breaker.
		return false, c.brCooldown
	}
	if elapsed := c.now().Sub(c.openedAt); elapsed >= c.brCooldown {
		c.brProbe = true // this build is the half-open probe
		telemetry.EmitEvent(ctx, telemetry.CatBreaker, telemetry.SevInfo,
			"breaker half-open: probe build allowed",
			telemetry.Int64("streak", c.streak))
		return true, 0
	} else {
		return false, c.brCooldown - elapsed
	}
}

// recordBuildLocked feeds one build outcome into the breaker, emitting a
// flight-recorder event at every state transition.
func (c *Cache[K, V]) recordBuildLocked(ctx context.Context, err error) {
	if err == nil {
		if c.brOpen {
			telemetry.EmitEvent(ctx, telemetry.CatBreaker, telemetry.SevInfo,
				"breaker closed: build succeeded",
				telemetry.Int64("streak", c.streak))
		}
		c.streak = 0
		c.brOpen, c.brProbe = false, false
		return
	}
	c.streak++
	if c.brProbe {
		// The probe failed: stay open, restart the cooldown.
		c.brProbe = false
		c.openedAt = c.now()
		telemetry.EmitEvent(ctx, telemetry.CatBreaker, telemetry.SevWarn,
			"breaker reopened: probe build failed",
			telemetry.Int64("streak", c.streak))
		return
	}
	if c.brThreshold > 0 && c.streak >= int64(c.brThreshold) && !c.brOpen {
		c.brOpen = true
		c.openedAt = c.now()
		c.breakerOpens.Add(1)
		telemetry.EmitEvent(ctx, telemetry.CatBreaker, telemetry.SevError,
			"breaker open: consecutive build failures crossed threshold",
			telemetry.Int64("streak", c.streak),
			telemetry.Int64("cooldownMs", c.brCooldown.Milliseconds()))
	}
}

// startBuildLocked registers and launches one detached singleflight build.
func (c *Cache[K, V]) startBuildLocked(ctx context.Context, key K) *call[V] {
	cl := &call[V]{done: make(chan struct{})}
	c.inflight[key] = cl
	// Build detached from the leader's cancellation: followers with live
	// contexts — and the next request for this key — still want the result.
	go c.runBuild(context.WithoutCancel(ctx), key, cl)
	return cl
}

type buildResult[V comparable] struct {
	v   V
	err error
}

// runBuild executes one build under the hook, panic recovery and the
// timeout budget, then publishes the outcome. The whole lifecycle lands in
// the flight recorder; ctx (detached, but value-preserving) carries the
// triggering request's trace ID into every event.
func (c *Cache[K, V]) runBuild(ctx context.Context, key K, cl *call[V]) {
	c.builds.Add(1)
	start := c.now()
	name := key.String()
	telemetry.EmitEvent(ctx, telemetry.CatBuild, telemetry.SevInfo,
		"build start", telemetry.Str("key", name))
	bctx, cancel := ctx, context.CancelFunc(func() {})
	if c.buildTimeout > 0 {
		bctx, cancel = context.WithTimeout(ctx, c.buildTimeout)
	}
	resc := make(chan buildResult[V], 1)
	go func() {
		defer func() {
			// A panicking build must not strand waiters on a never-closed
			// channel; surface it as an error to every waiter instead.
			if r := recover(); r != nil {
				resc <- buildResult[V]{err: fmt.Errorf("snapcache: build %s panicked: %v", name, r)}
			}
		}()
		if c.hook != nil {
			if err := c.hook(ctx, name); err != nil {
				resc <- buildResult[V]{err: err}
				return
			}
		}
		v, err := c.build(bctx, key)
		resc <- buildResult[V]{v: v, err: err}
	}()
	select {
	case r := <-resc:
		cancel()
		cl.v, cl.err = r.v, r.err
		durMs := c.now().Sub(start).Milliseconds()
		if cl.err != nil {
			telemetry.EmitEvent(ctx, telemetry.CatBuild, telemetry.SevError,
				"build failed",
				telemetry.Str("key", name),
				telemetry.Str("err", cl.err.Error()),
				telemetry.Int64("durMs", durMs))
		} else {
			telemetry.EmitEvent(ctx, telemetry.CatBuild, telemetry.SevInfo,
				"build done",
				telemetry.Str("key", name),
				telemetry.Int64("durMs", durMs))
		}
	case <-bctx.Done():
		// Timed out: fail the waiters now, but adopt the result if the
		// build eventually succeeds anyway — the work is already paid for.
		c.timeouts.Add(1)
		cl.err = fmt.Errorf("snapcache: build %s: %w", name, bctx.Err())
		telemetry.EmitEvent(ctx, telemetry.CatBuild, telemetry.SevWarn,
			"build timeout: waiters failed, late result still adoptable",
			telemetry.Str("key", name),
			telemetry.Int64("timeoutMs", c.buildTimeout.Milliseconds()))
		go func() {
			defer cancel()
			var zero V
			if r := <-resc; r.err == nil && r.v != zero {
				c.adoptLate(ctx, key, r.v)
			}
		}()
	}
	c.finish(ctx, key, cl)
}

// finish publishes a completed build: on success the entry enters the LRU
// (evicting one entry if over capacity) and the waiters get the value that
// is resident afterwards; errors are not cached, so the next Get retries.
// Either way the outcome feeds the breaker.
func (c *Cache[K, V]) finish(ctx context.Context, key K, cl *call[V]) {
	c.mu.Lock()
	delete(c.inflight, key)
	c.recordBuildLocked(ctx, cl.err)
	if cl.err != nil {
		c.errors.Add(1)
	} else {
		cl.v = c.insertLocked(key, cl.v)
	}
	c.mu.Unlock()
	close(cl.done)
}

// insertLocked puts v into the LRU under key and returns the value resident
// for key afterwards. First writer wins: if key is already resident (a primer
// Put or a late adoption landed first), the resident value and its
// attachment stay and only move to the front — both are the same pure
// function of key, and the resident one may carry an oracle nothing on the
// single-path route would rebuild. A new key over capacity evicts
// victimLocked's choice.
func (c *Cache[K, V]) insertLocked(key K, v V) V {
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		return e.v
	}
	for c.lru.Len() >= c.cap {
		victim := c.victimLocked()
		c.lru.Remove(victim)
		delete(c.entries, victim.Value.(K))
		c.evictions.Add(1)
	}
	c.entries[key] = &entry[V]{v: v, elem: c.lru.PushFront(key)}
	return v
}

// victimLocked picks the entry a new key pushes out: the least recently used
// one without an attachment, else the least recently used. One-shot entries
// (what-ifs, off-schedule instants) thus age each other out, and an entry
// whose oracle nothing on the single-path route rebuilds stays.
func (c *Cache[K, V]) victimLocked() *list.Element {
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		if c.entries[el.Value.(K)].aux == nil {
			return el
		}
	}
	return c.lru.Back()
}

// adoptLate inserts the success of a build whose waiters already saw a
// timeout. The late success also counts as one for the breaker: the backend
// works, slowly.
func (c *Cache[K, V]) adoptLate(ctx context.Context, key K, v V) {
	c.mu.Lock()
	c.insertLocked(key, v)
	c.lateBuilds.Add(1)
	c.recordBuildLocked(ctx, nil)
	c.mu.Unlock()
	telemetry.EmitEvent(ctx, telemetry.CatBuild, telemetry.SevInfo,
		"late build adopted after timeout",
		telemetry.Str("key", key.String()))
}

// Put inserts a ready-made value for key without running a build — the
// cache-priming path: a background primer builds the day's snapshots outside
// the request path (no build timeout, no breaker accounting) and deposits
// them. The entry enters the LRU exactly as a built one would (evicting over
// capacity as victimLocked chooses), and as there, an entry already resident
// for key wins. Put returns the value resident for key afterwards — derive
// attachments from that one, or Attach refuses them. A singleflight build
// already in flight for key is untouched; when it lands, its waiters get the
// resident value. V's zero value is ignored (and returned).
func (c *Cache[K, V]) Put(key K, v V) V {
	var zero V
	if v == zero {
		return zero
	}
	c.mu.Lock()
	v = c.insertLocked(key, v)
	c.mu.Unlock()
	c.primed.Add(1)
	return v
}

// Attach associates a derived artifact (e.g. a distance oracle) with the
// resident entry for key, provided the entry holds exactly the value v it
// was derived from. Identity is the guard: an artifact derived from a value
// that lost the insert race, or an eviction between deriving the artifact
// and attaching it, makes the attach a no-op (returning false) rather than
// pinning a result about a snapshot the cache does not serve. The
// attachment is dropped when its entry is evicted — it rides the same LRU
// lifecycle.
func (c *Cache[K, V]) Attach(key K, v V, aux any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.v != v {
		c.attachMisses.Add(1)
		return false
	}
	e.aux = aux
	c.attachments.Add(1)
	return true
}

// Attachment returns key's attachment and the value it was derived from,
// if the entry is resident and carries one. LRU order and counters are
// untouched — like GetCached, this is a probe.
func (c *Cache[K, V]) Attachment(key K) (any, V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.aux == nil {
		var zero V
		return nil, zero, false
	}
	return e.aux, e.v, true
}

// RangeAttachments calls f with every resident attachment and the value it
// was derived from, in no particular order, as they stood when it took the
// cache's lock; f runs after the lock is released. LRU order and counters are
// untouched.
func (c *Cache[K, V]) RangeAttachments(f func(aux any, v V)) {
	type attached struct {
		aux any
		v   V
	}
	c.mu.Lock()
	all := make([]attached, 0, len(c.entries))
	for _, e := range c.entries {
		if e.aux != nil {
			all = append(all, attached{e.aux, e.v})
		}
	}
	c.mu.Unlock()
	for _, a := range all {
		f(a.aux, a.v)
	}
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Breaker snapshots the circuit breaker's state.
func (c *Cache[K, V]) Breaker() BreakerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := BreakerStatus{FailureStreak: c.streak}
	switch {
	case !c.brOpen:
		st.State = BreakerClosed
	case c.brProbe:
		st.State = BreakerHalfOpen
		st.RetryAfter = c.brCooldown
	default:
		st.State = BreakerOpen
		if remaining := c.brCooldown - c.now().Sub(c.openedAt); remaining > 0 {
			st.RetryAfter = remaining
		}
	}
	return st
}

// Stats snapshots the cumulative counters.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Builds:       c.builds.Load(),
		Evictions:    c.evictions.Load(),
		Errors:       c.errors.Load(),
		Primed:       c.primed.Load(),
		Timeouts:     c.timeouts.Load(),
		LateBuilds:   c.lateBuilds.Load(),
		FastFails:    c.fastFails.Load(),
		BreakerOpens: c.breakerOpens.Load(),
		Attachments:  c.attachments.Load(),
		AttachMisses: c.attachMisses.Load(),
	}
}
