package snapcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leosim/internal/fault"
	"leosim/internal/graph"
)

// fakeClock is the injectable clock all self-healing tests run on: TTL,
// stale windows and breaker cooldowns advance only when told to.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// An entry past its TTL but inside StaleFor is served immediately with
// Stale set, while exactly one background rebuild replaces it.
func TestStaleWhileRevalidate(t *testing.T) {
	clock := newFakeClock()
	var builds atomic.Int64
	c := New(func(ctx context.Context, k Key) (*graph.Network, error) {
		builds.Add(1)
		return tinyNet(fmt.Sprintf("b%d", builds.Load())), nil
	}, Options{TTL: time.Minute, StaleFor: time.Hour, Clock: clock.Now})
	ctx := context.Background()
	k := keyAt("s", 1)

	n1, info, err := c.GetEx(ctx, k)
	if err != nil || info.Stale {
		t.Fatalf("first get: err=%v stale=%v", err, info.Stale)
	}
	clock.Advance(61 * time.Second) // past TTL, inside StaleFor

	n2, info, err := c.GetEx(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Stale {
		t.Fatal("expired-but-valid entry not marked stale")
	}
	if n2 != n1 {
		t.Fatal("stale serve returned a different network than the resident entry")
	}
	// One background rebuild must land; after it, the entry is fresh again.
	waitFor(t, "background revalidation", func() bool { return builds.Load() == 2 })
	waitFor(t, "fresh entry after revalidation", func() bool {
		_, info, err := c.GetEx(ctx, k)
		return err == nil && !info.Stale
	})
	n3, _, _ := c.GetEx(ctx, k)
	if n3 == n1 {
		t.Fatal("revalidation did not replace the stale network")
	}
	if st := c.Stats(); st.StaleServes == 0 {
		t.Errorf("StaleServes = 0, want > 0")
	}
}

// Many concurrent stale hits elect exactly one revalidation build.
func TestStaleServesShareOneRevalidation(t *testing.T) {
	clock := newFakeClock()
	gate := make(chan struct{})
	var builds atomic.Int64
	c := New(func(ctx context.Context, k Key) (*graph.Network, error) {
		if builds.Add(1) > 1 {
			<-gate
		}
		return tinyNet("x"), nil
	}, Options{TTL: time.Minute, StaleFor: time.Hour, Clock: clock.Now})
	ctx := context.Background()
	k := keyAt("s", 1)
	if _, err := c.Get(ctx, k); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Minute)

	const N = 50
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, info, err := c.GetEx(ctx, k)
			if err != nil || !info.Stale {
				t.Errorf("stale get: err=%v stale=%v", err, info.Stale)
			}
		}()
	}
	wg.Wait()
	close(gate)
	waitFor(t, "revalidation to finish", func() bool {
		_, info, err := c.GetEx(ctx, k)
		return err == nil && !info.Stale
	})
	if b := builds.Load(); b != 2 {
		t.Fatalf("builds = %d, want 2 (initial + one shared revalidation)", b)
	}
	if st := c.Stats(); st.StaleServes < N {
		t.Errorf("StaleServes = %d, want ≥ %d", st.StaleServes, N)
	}
}

// Past TTL+StaleFor the entry is a hard miss again: no stale serves from
// beyond the grace window.
func TestStaleWindowHardExpiry(t *testing.T) {
	clock := newFakeClock()
	var builds atomic.Int64
	c := New(func(ctx context.Context, k Key) (*graph.Network, error) {
		builds.Add(1)
		return tinyNet("x"), nil
	}, Options{TTL: time.Minute, StaleFor: time.Minute, Clock: clock.Now})
	ctx := context.Background()
	k := keyAt("s", 1)
	if _, err := c.Get(ctx, k); err != nil {
		t.Fatal(err)
	}
	clock.Advance(3 * time.Minute) // past TTL+StaleFor
	_, info, err := c.GetEx(ctx, k)
	if err != nil || info.Stale {
		t.Fatalf("hard-expired get: err=%v stale=%v (want fresh rebuild)", err, info.Stale)
	}
	if builds.Load() != 2 {
		t.Fatalf("builds = %d, want 2", builds.Load())
	}
	if st := c.Stats(); st.Expirations != 1 {
		t.Errorf("Expirations = %d, want 1", st.Expirations)
	}
}

// The breaker trips after the configured run of consecutive failures,
// fast-fails further misses with a Retry-After hint, half-opens after the
// cooldown, and closes again on a successful probe.
func TestBreakerTripsHalfOpensAndRecovers(t *testing.T) {
	clock := newFakeClock()
	var fail atomic.Bool
	fail.Store(true)
	var builds atomic.Int64
	c := New(func(ctx context.Context, k Key) (*graph.Network, error) {
		builds.Add(1)
		if fail.Load() {
			return nil, errors.New("backend down")
		}
		return tinyNet("ok"), nil
	}, Options{BreakerThreshold: 3, BreakerCooldown: 10 * time.Second, Clock: clock.Now})
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if _, err := c.Get(ctx, keyAt("s", i)); err == nil {
			t.Fatal("failing build returned no error")
		}
	}
	if br := c.Breaker(); br.State != BreakerOpen || br.FailureStreak != 3 {
		t.Fatalf("breaker after 3 failures = %+v, want open/streak 3", br)
	}

	// Open: no build happens, the error carries the remaining cooldown.
	clock.Advance(4 * time.Second)
	_, err := c.Get(ctx, keyAt("s", 99))
	var boe *BreakerOpenError
	if !errors.As(err, &boe) {
		t.Fatalf("open-breaker err = %v, want *BreakerOpenError", err)
	}
	if boe.RetryAfter != 6*time.Second {
		t.Fatalf("RetryAfter = %v, want 6s", boe.RetryAfter)
	}
	if builds.Load() != 3 {
		t.Fatalf("open breaker still built: builds = %d", builds.Load())
	}

	// Cooldown over, backend healed: the next Get is the probe and closes
	// the breaker.
	clock.Advance(7 * time.Second)
	fail.Store(false)
	if _, err := c.Get(ctx, keyAt("s", 100)); err != nil {
		t.Fatalf("probe get: %v", err)
	}
	if br := c.Breaker(); br.State != BreakerClosed || br.FailureStreak != 0 {
		t.Fatalf("breaker after successful probe = %+v, want closed", br)
	}
	st := c.Stats()
	if st.FastFails != 1 || st.BreakerOpens != 1 {
		t.Errorf("stats = %+v, want FastFails=1 BreakerOpens=1", st)
	}
}

// A failed probe re-opens the breaker and restarts the cooldown.
func TestBreakerProbeFailureReopens(t *testing.T) {
	clock := newFakeClock()
	c := New(func(ctx context.Context, k Key) (*graph.Network, error) {
		return nil, errors.New("still down")
	}, Options{BreakerThreshold: 2, BreakerCooldown: 10 * time.Second, Clock: clock.Now})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		c.Get(ctx, keyAt("s", i)) //nolint:errcheck // failures are the point
	}
	if br := c.Breaker(); br.State != BreakerOpen {
		t.Fatalf("breaker = %v, want open", br.State)
	}
	clock.Advance(11 * time.Second)
	if _, err := c.Get(ctx, keyAt("s", 3)); err == nil {
		t.Fatal("probe against a dead backend should fail")
	}
	br := c.Breaker()
	if br.State != BreakerOpen {
		t.Fatalf("breaker after failed probe = %v, want open again", br.State)
	}
	if br.RetryAfter != 10*time.Second {
		t.Fatalf("cooldown after failed probe = %v, want restarted 10s", br.RetryAfter)
	}
}

// Stale entries keep serving while the breaker is open: the breaker guards
// build work, never reads.
func TestOpenBreakerStillServesStale(t *testing.T) {
	clock := newFakeClock()
	var fail atomic.Bool
	c := New(func(ctx context.Context, k Key) (*graph.Network, error) {
		if fail.Load() {
			return nil, errors.New("down")
		}
		return tinyNet("x"), nil
	}, Options{TTL: time.Minute, StaleFor: time.Hour,
		BreakerThreshold: 1, BreakerCooldown: time.Hour, Clock: clock.Now})
	ctx := context.Background()
	k := keyAt("s", 1)
	if _, err := c.Get(ctx, k); err != nil {
		t.Fatal(err)
	}
	fail.Store(true)
	// Trip the breaker on another key.
	if _, err := c.Get(ctx, keyAt("s", 2)); err == nil {
		t.Fatal("want failure")
	}
	if c.Breaker().State != BreakerOpen {
		t.Fatal("breaker should be open")
	}
	clock.Advance(2 * time.Minute) // k is now stale
	n, info, err := c.GetEx(ctx, k)
	if err != nil || n == nil || !info.Stale {
		t.Fatalf("stale serve under open breaker: n=%v info=%+v err=%v", n, info, err)
	}
	// And a hard miss fast-fails instead of building.
	if _, _, err := c.GetEx(ctx, keyAt("s", 3)); !errors.As(err, new(*BreakerOpenError)) {
		t.Fatalf("miss under open breaker = %v, want BreakerOpenError", err)
	}
}

// A build that exceeds its timeout fails the waiters promptly — and when
// the build completes late anyway, its result is adopted into the cache.
func TestBuildTimeoutFailsFastAndAdoptsLateResult(t *testing.T) {
	gate := make(chan struct{})
	c := New(func(ctx context.Context, k Key) (*graph.Network, error) {
		<-gate // ignores ctx, like a wedged dependency
		return tinyNet("late"), nil
	}, Options{BuildTimeout: 30 * time.Millisecond})
	k := keyAt("s", 1)
	_, err := c.Get(context.Background(), k)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out build err = %v, want DeadlineExceeded", err)
	}
	if st := c.Stats(); st.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1", st.Timeouts)
	}
	close(gate)
	waitFor(t, "late adoption", func() bool { return c.Stats().LateBuilds == 1 })
	n, info, err := c.GetEx(context.Background(), k)
	if err != nil || n == nil || info.Stale {
		t.Fatalf("get after late adoption: n=%v info=%+v err=%v", n, info, err)
	}
	if c.Stats().Builds != 1 {
		t.Fatalf("builds = %d, want 1 (adopted, not rebuilt)", c.Stats().Builds)
	}
}

// Satellite regression: a TTL expiry "under" an in-flight singleflight
// build — the clock jumps past the TTL while the build runs. Waiters still
// share the one build, and the entry lands with a fresh builtAt so the
// next Get is a non-stale hit.
func TestTTLExpiryRacesInFlightBuild(t *testing.T) {
	clock := newFakeClock()
	gate := make(chan struct{})
	var builds atomic.Int64
	c := New(func(ctx context.Context, k Key) (*graph.Network, error) {
		builds.Add(1)
		<-gate
		return tinyNet("x"), nil
	}, Options{TTL: time.Minute, StaleFor: time.Hour, Clock: clock.Now})
	k := keyAt("s", 1)

	results := make(chan error, 2)
	go func() { _, err := c.Get(context.Background(), k); results <- err }()
	waitFor(t, "leader build in flight", func() bool { return builds.Load() == 1 })
	clock.Advance(5 * time.Minute) // TTL expires mid-build
	go func() { _, err := c.Get(context.Background(), k); results <- err }()
	waitFor(t, "follower waiting", func() bool { return c.Stats().Misses == 2 })
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	if builds.Load() != 1 {
		t.Fatalf("builds = %d, want 1 shared build", builds.Load())
	}
	// builtAt is stamped at insert time (after the advance), so the entry
	// is fresh, not instantly expired.
	if _, info, err := c.GetEx(context.Background(), k); err != nil || info.Stale {
		t.Fatalf("entry stale right after insert: info=%+v err=%v", info, err)
	}
}

// Chaos harness at the cache layer: a seeded 30% build-failure injection.
// Clients that retry once on failure see ≥95% success; stale coverage means
// zero failures for keys that were ever resident. Deterministic by seed.
func TestChaosSeededFailureInjection(t *testing.T) {
	clock := newFakeClock()
	chaos := fault.NewChaos(1234, 0.30, 0, 0)
	var builds atomic.Int64
	c := New(func(ctx context.Context, k Key) (*graph.Network, error) {
		builds.Add(1)
		return tinyNet(k.String()), nil
	}, Options{
		TTL: 30 * time.Second, StaleFor: time.Hour,
		BuildHook: func(ctx context.Context, k Key) error { return chaos.BuildHook(ctx, k.String()) },
		Clock:     clock.Now,
	})
	ctx := context.Background()

	const keys = 6
	var attempts, successes, failuresAfterResident int
	resident := map[Key]bool{}
	for i := 0; i < 400; i++ {
		k := keyAt("chaos", i%keys)
		clock.Advance(7 * time.Second) // entries continually drift past TTL
		var err error
		for try := 0; try < 4; try++ { // bounded retry, like a backoff client
			attempts++
			_, _, err = c.GetEx(ctx, k)
			if err == nil {
				break
			}
			if resident[k] {
				failuresAfterResident++
			}
		}
		if err == nil {
			successes++
			resident[k] = true
		}
	}
	rate := float64(successes) / 400
	if rate < 0.95 {
		t.Fatalf("success rate %.3f under 30%% build-failure injection, want ≥0.95", rate)
	}
	if failuresAfterResident != 0 {
		t.Fatalf("%d failures for keys with stale coverage, want 0", failuresAfterResident)
	}
	if chaos.Fails() == 0 {
		t.Fatal("chaos injected nothing — test misconfigured")
	}
	t.Logf("chaos: %d attempts, %d/%d successes (%.1f%%), %d injected failures, %d builds",
		attempts, successes, 400, rate*100, chaos.Fails(), builds.Load())
}
