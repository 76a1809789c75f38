package snapcache

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leosim/internal/fault"
	"leosim/internal/graph"
)

// fakeClock is the injectable clock all self-healing tests run on: breaker
// cooldowns advance only when told to.
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

// Resident entries keep serving under an open breaker: the breaker guards
// build work, never reads.
func TestOpenBreakerStillServesStale(t *testing.T) {
	clock := newFakeClock()
	var fail atomic.Bool
	c := New(func(ctx context.Context, k Key) (*graph.Network, error) {
		if fail.Load() {
			return nil, errors.New("down")
		}
		return tinyNet(k.String()), nil
	}, Options{BreakerThreshold: 1, BreakerCooldown: time.Hour, Clock: clock.Now})
	ctx := context.Background()
	k := keyAt("s", 1)
	n1, err := c.Get(ctx, k)
	if err != nil {
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
	clock.Advance(30 * time.Minute) // well inside the cooldown
	n, err := c.Get(ctx, k)
	if err != nil || n != n1 {
		t.Fatalf("resident key under open breaker: n=%v err=%v, want the resident network", n, err)
	}
	// And a miss fast-fails instead of building.
	if _, err := c.Get(ctx, keyAt("s", 3)); !errors.As(err, new(*BreakerOpenError)) {
		t.Fatalf("miss under open breaker = %v, want BreakerOpenError", err)
	}
	if st := c.Stats(); st.Builds != 2 || st.Hits != 1 || st.FastFails != 1 {
		t.Errorf("stats = %+v, want 2 builds, 1 hit, 1 fast fail", st)
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
	n, err := c.Get(context.Background(), k)
	if err != nil || n == nil {
		t.Fatalf("get after late adoption: n=%v err=%v", n, err)
	}
	if c.Stats().Builds != 1 {
		t.Fatalf("builds = %d, want 1 (adopted, not rebuilt)", c.Stats().Builds)
	}
}

// Chaos harness at the cache layer: a seeded 30% build-failure injection
// over more keys than the cache holds, so evictions keep builds — and with
// them injections — going for the whole run. Clients that retry up to four
// times see ≥95% success, and a key resident when its Get starts never fails.
// Deterministic by seed.
func TestChaosSeededFailureInjection(t *testing.T) {
	chaos := fault.NewChaos(1234, 0.30, 0, 0)
	var builds atomic.Int64
	c := New(func(ctx context.Context, k Key) (*graph.Network, error) {
		builds.Add(1)
		return tinyNet(k.String()), nil
	}, Options{
		Capacity:  4,
		BuildHook: chaos.BuildHook,
	})
	ctx := context.Background()

	const gets, keys = 400, 7
	rng := rand.New(rand.NewSource(1234))
	var attempts, successes, residentFailures int
	for i := 0; i < gets; i++ {
		k := keyAt("chaos", rng.Intn(keys))
		var err error
		for try := 0; try < 4; try++ { // bounded retry, like a backoff client
			attempts++
			resident := c.Peek(k)
			var n *graph.Network
			if n, err = c.Get(ctx, k); err == nil {
				if n.Name[0] != k.String() {
					t.Fatalf("Get(%v) returned the network of %q", k, n.Name[0])
				}
				break
			}
			if resident {
				residentFailures++
			}
		}
		if err == nil {
			successes++
		}
	}
	rate := float64(successes) / gets
	if rate < 0.95 {
		t.Fatalf("success rate %.3f under 30%% build-failure injection, want ≥0.95", rate)
	}
	if residentFailures != 0 {
		t.Fatalf("%d failures for keys resident when their Get started, want 0", residentFailures)
	}
	if chaos.Fails() == 0 {
		t.Fatal("chaos injected nothing — test misconfigured")
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions over %d keys in a capacity-4 cache: %+v", keys, st)
	}
	t.Logf("chaos: %d attempts, %d/%d successes (%.1f%%), %d injected failures, %d builds",
		attempts, successes, gets, rate*100, chaos.Fails(), builds.Load())
}
