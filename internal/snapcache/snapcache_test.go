package snapcache

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leosim/internal/geo"
	"leosim/internal/graph"
)

// tinyNet builds a distinguishable 2-node network; the node name encodes the
// key so tests can verify which build produced a cached graph.
func tinyNet(label string) *graph.Network {
	n := &graph.Network{}
	a := n.AddNode(graph.NodeCity, geo.Vec3{X: 6371}, label)
	b := n.AddNode(graph.NodeCity, geo.Vec3{Y: 6371}, label+"-b")
	n.AddLink(a, b, graph.LinkFiber, 1)
	return n
}

func keyAt(scenario string, sec int) Key {
	return Key{Scenario: scenario, Time: time.Unix(int64(sec), 0).UTC()}
}

// whatIf is the tests' key where a fault matters, shaped like the server's:
// a Key and a fault mask ("" = healthy).
type whatIf struct {
	Key
	mask string
}

func (k whatIf) String() string {
	if k.mask == "" {
		return k.Key.String()
	}
	return k.Key.String() + "+" + k.mask
}

// The acceptance-criteria test: 100 concurrent Gets for one key run the
// build function exactly once, and everyone observes the same network.
func TestSingleflightOneBuildPer100ConcurrentGets(t *testing.T) {
	var builds atomic.Int64
	c := New(func(ctx context.Context, k Key) (*graph.Network, error) {
		builds.Add(1)
		time.Sleep(10 * time.Millisecond) // widen the race window
		return tinyNet(k.Scenario), nil
	}, Options{})

	const N = 100
	got := make([]*graph.Network, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := c.Get(context.Background(), keyAt("s", 1))
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = n
		}()
	}
	wg.Wait()
	if b := builds.Load(); b != 1 {
		t.Fatalf("builds = %d, want exactly 1 for %d concurrent gets of one key", b, N)
	}
	for i := 1; i < N; i++ {
		if got[i] != got[0] {
			t.Fatalf("get %d returned a different network pointer", i)
		}
	}
	st := c.Stats()
	if st.Builds != 1 {
		t.Errorf("Stats().Builds = %d, want 1", st.Builds)
	}
	if st.Hits+st.Misses != N {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, N)
	}
}

// Distinct (scenario, time, mask) components must not share builds.
func TestDistinctKeysBuildSeparately(t *testing.T) {
	var builds atomic.Int64
	c := New(func(ctx context.Context, k whatIf) (*graph.Network, error) {
		builds.Add(1)
		return tinyNet(k.String()), nil
	}, Options{})
	ctx := context.Background()
	keys := []whatIf{
		{Key: keyAt("a", 1)},
		{Key: keyAt("a", 2)},
		{Key: keyAt("b", 1)},
		{Key: keyAt("a", 1), mask: "sat:0.10:7"},
	}
	seen := map[*graph.Network]bool{}
	for _, k := range keys {
		n, err := c.Get(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		seen[n] = true
	}
	if builds.Load() != int64(len(keys)) || len(seen) != len(keys) {
		t.Fatalf("builds = %d, distinct networks = %d, want %d each",
			builds.Load(), len(seen), len(keys))
	}
	// Same keys again: all hits, no new builds.
	for _, k := range keys {
		if _, err := c.Get(ctx, k); err != nil {
			t.Fatal(err)
		}
	}
	if builds.Load() != int64(len(keys)) {
		t.Fatalf("repeat gets rebuilt: builds = %d", builds.Load())
	}
}

func TestLRUEvictsColdest(t *testing.T) {
	c := New(func(ctx context.Context, k Key) (*graph.Network, error) {
		return tinyNet(k.String()), nil
	}, Options{Capacity: 2})
	ctx := context.Background()
	k1, k2, k3 := keyAt("s", 1), keyAt("s", 2), keyAt("s", 3)
	for _, k := range []Key{k1, k2} {
		if _, err := c.Get(ctx, k); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k1 so k2 is the LRU victim.
	if _, err := c.Get(ctx, k1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, k3); err != nil {
		t.Fatal(err)
	}
	if !c.Peek(k1) || c.Peek(k2) || !c.Peek(k3) {
		t.Errorf("residency after eviction: k1=%v k2=%v k3=%v, want true/false/true",
			c.Peek(k1), c.Peek(k2), c.Peek(k3))
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestBuildErrorsPropagateAndAreNotCached(t *testing.T) {
	boom := errors.New("boom")
	var builds atomic.Int64
	c := New(func(ctx context.Context, k Key) (*graph.Network, error) {
		if builds.Add(1) == 1 {
			return nil, boom
		}
		return tinyNet("ok"), nil
	}, Options{})
	ctx := context.Background()
	if _, err := c.Get(ctx, keyAt("s", 1)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	n, err := c.Get(ctx, keyAt("s", 1))
	if err != nil || n == nil {
		t.Fatalf("retry after error: n=%v err=%v", n, err)
	}
	if st := c.Stats(); st.Errors != 1 || st.Builds != 2 {
		t.Errorf("stats = %+v, want Errors=1 Builds=2", st)
	}
}

func TestBuildPanicSurfacesAsError(t *testing.T) {
	c := New(func(ctx context.Context, k Key) (*graph.Network, error) {
		panic("kaboom")
	}, Options{})
	_, err := c.Get(context.Background(), keyAt("s", 1))
	if err == nil {
		t.Fatal("panicking build should return an error")
	}
}

// A waiter whose context dies mid-build bails out with ctx.Err(), while the
// build itself completes and lands in the cache for the next caller.
func TestWaiterCancellationDoesNotAbandonBuild(t *testing.T) {
	gate := make(chan struct{})
	c := New(func(ctx context.Context, k Key) (*graph.Network, error) {
		<-gate
		return tinyNet("slow"), nil
	}, Options{})
	k := keyAt("s", 1)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.Get(leaderCtx, k)
		errc <- err
	}()
	// Wait for the build to be in flight, then cancel the leader.
	for i := 0; c.Stats().Builds == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	cancelLeader()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
	}
	close(gate) // let the detached build finish
	n, err := c.Get(context.Background(), k)
	if err != nil || n == nil {
		t.Fatalf("follow-up get: n=%v err=%v", n, err)
	}
	if got := c.Stats().Builds; got != 1 {
		t.Fatalf("builds = %d, want 1 (abandoned build should still populate the cache)", got)
	}
}

func TestPreCancelledContext(t *testing.T) {
	c := New(func(ctx context.Context, k Key) (*graph.Network, error) {
		t.Error("build must not run for a pre-cancelled context")
		return nil, nil
	}, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(ctx, keyAt("s", 1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// Hammer the cache from many goroutines over overlapping keys; run with
// -race this doubles as the concurrency audit for the shared structures.
func TestConcurrentMixedKeys(t *testing.T) {
	var builds atomic.Int64
	c := New(func(ctx context.Context, k Key) (*graph.Network, error) {
		builds.Add(1)
		return tinyNet(k.String()), nil
	}, Options{Capacity: 4})
	const workers, iters, nkeys = 16, 200, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := keyAt("mix", (w+i)%nkeys)
				n, err := c.Get(context.Background(), k)
				if err != nil || n == nil {
					t.Errorf("get %v: %v", k, err)
					return
				}
				if want := k.String(); n.Name[0] != want {
					t.Errorf("key %v returned network %q", k, n.Name[0])
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() > 4 {
		t.Errorf("Len = %d exceeds capacity 4", c.Len())
	}
}

func TestKeyString(t *testing.T) {
	k := Key{Scenario: "starlink/tiny/bp", Time: time.Unix(0, 0).UTC()}
	if got := k.String(); got != "starlink/tiny/bp@1970-01-01T00:00:00Z" {
		t.Errorf("String() = %q", got)
	}
}

// faultKey is a key of the server's kind: typed fields, a float among them,
// and a String for events and the build hook.
type faultKey struct {
	at       int
	fraction float64
	seed     int64
}

func (k faultKey) String() string { return fmt.Sprintf("t%d+sat:%g:%d", k.at, k.fraction, k.seed) }

// A cache keyed by a type other than Key: equal values share one build and
// one entry — 0 and -0 among them, as == has it — distinct ones build apart,
// attachments ride the typed key, and the build hook is handed the key's
// String.
func TestKeyedByAnyComparable(t *testing.T) {
	var mu sync.Mutex
	var hooked []string
	c := New(func(ctx context.Context, k faultKey) (*graph.Network, error) {
		return tinyNet(k.String()), nil
	}, Options{BuildHook: func(_ context.Context, key string) error {
		mu.Lock()
		defer mu.Unlock()
		hooked = append(hooked, key)
		return nil
	}})
	ctx := context.Background()
	keys := []faultKey{{1, 0.1, 7}, {1, 0.1, 8}, {2, 0.1, 7}, {1, 0, math.MinInt64}, {1, 0, math.MaxInt64}}
	var want []string
	for _, k := range keys {
		n, err := c.Get(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		if n.Name[0] != k.String() {
			t.Fatalf("Get(%v) returned the network of %q", k, n.Name[0])
		}
		want = append(want, k.String())
	}
	negZero := faultKey{1, math.Copysign(0, -1), math.MinInt64}
	n, err := c.Get(ctx, negZero)
	if err != nil {
		t.Fatal(err)
	}
	if n.Name[0] != keys[3].String() {
		t.Errorf("Get(%v) = the network of %q, want the resident %v's", negZero, n.Name[0], keys[3])
	}
	if st := c.Stats(); st.Builds != int64(len(keys)) || st.Hits != 1 {
		t.Errorf("builds = %d, hits = %d; want %d builds and one hit", st.Builds, st.Hits, len(keys))
	}
	if !reflect.DeepEqual(hooked, want) {
		t.Errorf("build hook saw %q, want %q", hooked, want)
	}
	if !c.Attach(negZero, n, "oracle") {
		t.Fatal("Attach under an equal key refused")
	}
	if aux, _, ok := c.Attachment(keys[3]); !ok || aux != "oracle" {
		t.Errorf("Attachment(%v) = %v, %v", keys[3], aux, ok)
	}
}

func TestHitRate(t *testing.T) {
	if (Stats{}).HitRate() != 0 {
		t.Error("empty HitRate should be 0")
	}
	s := Stats{Hits: 3, Misses: 1}
	if got := s.HitRate(); got != 0.75 {
		t.Errorf("HitRate = %v, want 0.75", got)
	}
}

// TestPutPrimesWithoutBuilding checks the cache-priming path: Put deposits a
// ready-made network that later Gets serve as plain hits (no build), the
// Primed counter tracks deposits, and Put respects capacity like any insert.
func TestPutPrimesWithoutBuilding(t *testing.T) {
	var builds atomic.Int64
	c := New(func(ctx context.Context, k Key) (*graph.Network, error) {
		builds.Add(1)
		return tinyNet("built-" + k.Scenario), nil
	}, Options{Capacity: 2})

	primed := tinyNet("primed")
	c.Put(keyAt("p", 1), primed)
	if st := c.Stats(); st.Primed != 1 {
		t.Fatalf("Primed = %d after one Put", st.Primed)
	}
	n, err := c.Get(context.Background(), keyAt("p", 1))
	if err != nil {
		t.Fatal(err)
	}
	if n != primed {
		t.Fatal("Get returned a different network than the primed one")
	}
	if b := builds.Load(); b != 0 {
		t.Fatalf("Get after Put ran %d builds, want 0", b)
	}

	// nil networks are ignored, not cached as poison.
	c.Put(keyAt("p", 2), nil)
	if _, ok := c.GetCached(keyAt("p", 2)); ok {
		t.Fatal("nil Put created an entry")
	}

	// Put participates in the LRU: two more deposits evict the oldest.
	c.Put(keyAt("p", 3), tinyNet("x"))
	c.Put(keyAt("p", 4), tinyNet("y"))
	if _, ok := c.GetCached(keyAt("p", 1)); ok {
		t.Fatal("capacity-2 cache still holds the first primed entry after two more Puts")
	}
}
