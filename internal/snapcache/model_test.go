package snapcache

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leosim/internal/graph"
)

// ---- the reference model ----------------------------------------------------

// model is the cache as a list and a few integers — no locks, no goroutines,
// no timers — stepping through the documented rules one operation at a time:
// first writer wins, the victim is the least recently used entry without an
// attachment (the plain LRU one when all carry one), and the breaker goes
// closed → open → half-open → closed or open again.
type model struct {
	cap       int
	threshold int64
	cooldown  time.Duration
	lru       []*residentEntry // most recently used first
	pending   []*lateBuild     // timed-out builds not yet adopted, oldest first
	streak    int64
	open      bool
	probe     bool
	openedAt  time.Time
	st        Stats
}

func (m *model) find(k Key) *residentEntry {
	for i, e := range m.lru {
		if e.key == k {
			copy(m.lru[1:i+1], m.lru[:i])
			m.lru[0] = e
			return e
		}
	}
	return nil
}

func (m *model) peek(k Key) *residentEntry {
	for _, e := range m.lru {
		if e.key == k {
			return e
		}
	}
	return nil
}

func (m *model) insert(k Key, n *graph.Network) *graph.Network {
	if e := m.find(k); e != nil {
		return e.n
	}
	for len(m.lru) >= m.cap {
		v := len(m.lru) - 1
		for i := v; i >= 0; i-- {
			if m.lru[i].aux == nil {
				v = i
				break
			}
		}
		m.lru = append(m.lru[:v], m.lru[v+1:]...)
		m.st.Evictions++
	}
	m.lru = append([]*residentEntry{{key: k, n: n}}, m.lru...)
	return n
}

func (m *model) allow(now time.Time) (bool, time.Duration) {
	switch {
	case !m.open:
		return true, 0
	case m.probe:
		return false, m.cooldown
	case now.Sub(m.openedAt) >= m.cooldown:
		m.probe = true
		return true, 0
	}
	return false, m.cooldown - now.Sub(m.openedAt)
}

func (m *model) record(ok bool, now time.Time) {
	switch {
	case ok:
		m.streak, m.open, m.probe = 0, false, false
	case m.probe:
		m.streak++
		m.probe, m.openedAt = false, now
	default:
		if m.streak++; m.streak >= m.threshold && !m.open {
			m.open, m.openedAt = true, now
			m.st.BreakerOpens++
		}
	}
}

func (m *model) breaker(now time.Time) BreakerStatus {
	st := BreakerStatus{State: BreakerClosed, FailureStreak: m.streak}
	if m.open {
		st.State = BreakerOpen
		st.RetryAfter = max(m.cooldown-now.Sub(m.openedAt), 0)
	}
	return st
}

func (m *model) adopt(lb *lateBuild, now time.Time) {
	for i, p := range m.pending {
		if p == lb {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
		}
	}
	m.insert(lb.key, lb.n)
	m.st.LateBuilds++
	m.record(true, now)
}

// get steps a Get of k whose build, if there is one, has outcome sc. built
// holds the networks the build function made in this step (the model cannot
// know the pointers in advance); the returned error stands for a kind.
func (m *model) get(k Key, sc script, now time.Time, built map[Key]*graph.Network) (*graph.Network, error) {
	if e := m.find(k); e != nil {
		m.st.Hits++
		return e.n, nil
	}
	m.st.Misses++
	if ok, retry := m.allow(now); !ok {
		m.st.FastFails++
		return nil, &BreakerOpenError{RetryAfter: retry}
	}
	m.st.Builds++
	if k.Mask != "" {
		m.get(parentOf(k), script{}, now, built) //nolint:errcheck // the probe builds its parent itself
	}
	var err error
	switch sc.out {
	case buildFail, buildLateThenFail:
		err = errScripted
	case buildPanic:
		err = errPanicked
	case buildSlow:
		err = context.DeadlineExceeded
		m.st.Timeouts++
	}
	if sc.late != nil {
		m.adopt(sc.late, now)
	}
	if err != nil {
		m.st.Errors++
		m.record(false, now)
		return nil, err
	}
	m.record(true, now)
	return m.insert(k, built[k]), nil
}

func (m *model) attach(k Key, n *graph.Network, aux any) bool {
	if e := m.peek(k); e != nil && e.n == n {
		e.aux = aux
		m.st.Attachments++
		return true
	}
	m.st.AttachMisses++
	return false
}

// ---- the harness: a real cache behind a scripted build function -------------

// modelKeys are three instants, each healthy and under a fault mask.
func modelKeys() []Key {
	var keys []Key
	for i := 0; i < 3; i++ {
		k := keyAt("s", 900*i)
		keys = append(keys, k, Key{Scenario: k.Scenario, Time: k.Time, Mask: fmt.Sprintf("sat:0.05:%d", i)})
	}
	return keys
}

// parentOf is the healthy key a masked key is derived from.
func parentOf(k Key) Key { return Key{Scenario: k.Scenario, Time: k.Time} }

// outcome scripts one build.
type outcome int

const (
	buildOK outcome = iota
	buildFail
	buildPanic
	buildSlow         // overruns BuildTimeout, finishes ok when released
	buildLateThenOK   // a timed-out build of the same key lands mid-build, then ok
	buildLateThenFail // the same, then the build fails
)

func (o outcome) String() string {
	return [...]string{"ok", "fail", "panic", "slow", "late+ok", "late+fail"}[o]
}

var (
	errScripted = errors.New("scripted build failure")
	// errPanicked stands for the error a panicking build surfaces as.
	errPanicked = errors.New("panicked")
)

// modelBuildTimeout is what a slow build costs in wall-clock time.
const modelBuildTimeout = 20 * time.Millisecond

type script struct {
	out  outcome
	late *lateBuild // buildLateThen*: the timed-out build that lands mid-build
}

// lateBuild is a build that overran BuildTimeout, parked until released.
type lateBuild struct {
	key     Key
	n       *graph.Network
	parked  chan struct{} // closed once the build has seen its timeout
	release chan struct{}
	landed  int64 // Stats().LateBuilds once it is adopted
}

type harness struct {
	c    *Cache[*graph.Network]
	slow chan *lateBuild // each slow build announces itself
	done chan struct{}   // closed when the run ends: parked builds give up

	mu       sync.Mutex
	scripts  map[Key]script         // next build's outcome per key (default ok)
	active   map[Key]int            // build calls per key that have not timed out
	built    map[Key]*graph.Network // networks built (not adopted late) this step
	gets     int64                  // Gets issued, nested ones included
	problems []string
}

func (h *harness) problemf(format string, args ...any) {
	h.mu.Lock()
	h.problems = append(h.problems, fmt.Sprintf(format, args...))
	h.mu.Unlock()
}

func (h *harness) get(ctx context.Context, k Key) (*graph.Network, error) {
	h.mu.Lock()
	h.gets++
	h.mu.Unlock()
	n, err := h.c.Get(ctx, k)
	if n != nil && n.Name[0] != k.String() {
		h.problemf("Get(%v) returned the network built for %q", k, n.Name[0])
	}
	if err != nil && ctx.Err() != nil {
		h.problemf("Get(%v) blocked until its caller gave up: %v", k, err)
	}
	return n, err
}

func (h *harness) build(ctx context.Context, k Key) (*graph.Network, error) {
	h.mu.Lock()
	sc := h.scripts[k]
	delete(h.scripts, k)
	h.active[k]++
	if h.active[k] > 1 {
		h.problems = append(h.problems, fmt.Sprintf("two builds of %v in flight", k))
	}
	h.mu.Unlock()
	live := true
	defer func() {
		if live {
			h.mu.Lock()
			h.active[k]--
			h.mu.Unlock()
		}
	}()
	if k.Mask != "" {
		// A derived key reads its parent through the same cache, as the
		// server's what-ifs do. Beside a half-open probe the cache starts no
		// second build, so the probe makes its parent itself.
		_, err := h.get(ctx, parentOf(k))
		if err != nil && !errors.As(err, new(*BreakerOpenError)) {
			return nil, err
		}
	}
	switch sc.out {
	case buildFail:
		return nil, errScripted
	case buildPanic:
		panic("scripted panic")
	case buildSlow:
		lb := &lateBuild{key: k, n: tinyNet(k.String()), parked: make(chan struct{}), release: make(chan struct{})}
		h.slow <- lb
		<-ctx.Done()
		h.mu.Lock()
		h.active[k]--
		live = false
		h.mu.Unlock()
		close(lb.parked)
		select {
		case <-lb.release:
			return lb.n, nil
		case <-h.done:
			return nil, errScripted
		}
	case buildLateThenOK, buildLateThenFail:
		close(sc.late.release)
		for deadline := time.Now().Add(10 * time.Second); h.c.Stats().LateBuilds < sc.late.landed; time.Sleep(20 * time.Microsecond) {
			if time.Now().After(deadline) {
				h.problemf("late build of %v never adopted", k)
				break
			}
		}
		if sc.out == buildLateThenFail {
			return nil, errScripted
		}
	}
	n := tinyNet(k.String())
	h.mu.Lock()
	if h.built[k] != nil {
		h.problems = append(h.problems, fmt.Sprintf("%v built twice in one step", k))
	}
	h.built[k] = n
	h.mu.Unlock()
	return n, nil
}

// sameErr reports whether got is of the kind the model's want stands for.
func sameErr(got, want error) bool {
	var boe, wantBoe *BreakerOpenError
	switch {
	case want == nil || got == nil:
		return got == want
	case errors.As(want, &wantBoe):
		return errors.As(got, &boe) && boe.RetryAfter == wantBoe.RetryAfter
	case errors.Is(want, errPanicked):
		return strings.Contains(got.Error(), "panicked")
	}
	return errors.Is(got, want)
}

func describe(es []*residentEntry) string {
	var b strings.Builder
	for _, e := range es {
		if e == nil {
			b.WriteString("[absent] ")
			continue
		}
		fmt.Fprintf(&b, "[%s %p aux=%v] ", e.key, e.n, e.aux)
	}
	return b.String()
}

// check compares the cache with the model after a step.
func (h *harness) check(m *model, now time.Time, prevBr BreakerStatus, prevSt Stats, attaches int64) error {
	h.mu.Lock()
	problems, gets := h.problems, h.gets
	h.mu.Unlock()
	if len(problems) > 0 {
		return errors.New(strings.Join(problems, "; "))
	}
	got, inflight := h.c.resident()
	same := len(got) == len(m.lru) && inflight == 0
	for i := 0; same && i < len(got); i++ {
		same = got[i] == *m.lru[i]
	}
	if !same {
		var gotp []*residentEntry
		for i := range got {
			gotp = append(gotp, &got[i])
		}
		return fmt.Errorf("resident (MRU first, %d in flight): %s\nmodel: %s", inflight, describe(gotp), describe(m.lru))
	}
	br, st := h.c.Breaker(), h.c.Stats()
	if want := m.breaker(now); br != want {
		return fmt.Errorf("breaker %+v, model %+v", br, want)
	}
	switch {
	case br.State == BreakerHalfOpen:
		return errors.New("breaker half-open between steps, with no probe in flight")
	case prevBr.State == BreakerClosed && br.State == BreakerOpen && br.FailureStreak < m.threshold:
		return fmt.Errorf("breaker opened on a streak of %d", br.FailureStreak)
	case prevBr.State == BreakerOpen && br.State == BreakerClosed &&
		st.LateBuilds == prevSt.LateBuilds && st.Builds-prevSt.Builds <= st.Errors-prevSt.Errors:
		return errors.New("breaker closed without a successful build")
	}
	if st != m.st {
		return fmt.Errorf("stats %+v\nmodel %+v", st, m.st)
	}
	if st.Hits+st.Misses != gets || st.Attachments+st.AttachMisses != attaches {
		return fmt.Errorf("stats %+v do not balance %d Gets and %d Attaches", st, gets, attaches)
	}
	return nil
}

// errOverran abandons a run: a build scripted to be fast overran
// BuildTimeout (the machine stalled for longer than modelBuildTimeout), so the
// step the model took is not the one the cache took.
var errOverran = errors.New("a fast build overran BuildTimeout")

// runModel drives steps random operations from seed against a fresh cache
// and the model.
func runModel(seed int64, steps int) error {
	rng := rand.New(rand.NewSource(seed))
	clock := newFakeClock()
	const capacity, threshold, cooldown = 3, 2, 10 * time.Second
	h := &harness{
		slow: make(chan *lateBuild, 1), done: make(chan struct{}),
		active: map[Key]int{},
	}
	defer close(h.done)
	h.c = New(h.build, Options{
		Capacity: capacity, BuildTimeout: modelBuildTimeout,
		BreakerThreshold: threshold, BreakerCooldown: cooldown, Clock: clock.Now,
	})
	m := &model{cap: capacity, threshold: threshold, cooldown: cooldown}
	keys := modelKeys()
	history := map[Key][]*graph.Network{} // every network made for a key
	auxNet := map[any]*graph.Network{}    // the network each attachment was attached to
	var attaches int64
	for step := 0; step < steps; step++ {
		k := keys[rng.Intn(len(keys))]
		h.mu.Lock()
		h.scripts, h.built = map[Key]script{}, map[Key]*graph.Network{}
		h.mu.Unlock()
		prevBr, prevSt := h.c.Breaker(), h.c.Stats()
		var what string
		switch op := rng.Intn(20); {
		case op < 9:
			sc := script{out: [...]outcome{buildOK, buildOK, buildOK, buildOK, buildOK, buildOK, buildOK, buildOK,
				buildFail, buildFail, buildPanic, buildSlow, buildLateThenOK, buildLateThenFail}[rng.Intn(14)]}
			if sc.out >= buildLateThenOK {
				for _, lb := range m.pending {
					if lb.key == k && sc.late == nil {
						sc.late, lb.landed = lb, m.st.LateBuilds+1
					}
				}
				if sc.late == nil {
					sc.out -= buildLateThenOK - buildOK
				}
			}
			what = fmt.Sprintf("Get(%v) scripted %v", k, sc.out)
			h.mu.Lock()
			h.scripts[k] = sc
			h.mu.Unlock()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			n, err := h.get(ctx, k)
			cancel()
			h.mu.Lock()
			built := maps.Clone(h.built) // a build that overran may still write
			h.mu.Unlock()
			wantN, wantErr := m.get(k, sc, clock.Now(), built)
			if h.c.Stats().Timeouts != m.st.Timeouts {
				return errOverran
			}
			if n != wantN || !sameErr(err, wantErr) {
				return fmt.Errorf("step %d %s = (%p, %v), model (%p, %v)", step, what, n, err, wantN, wantErr)
			}
			for bk, bn := range built {
				history[bk] = append(history[bk], bn)
			}
			if errors.Is(wantErr, context.DeadlineExceeded) {
				var lb *lateBuild
				select {
				case lb = <-h.slow:
				case <-time.After(10 * time.Second):
					return fmt.Errorf("step %d %s: the timed-out build never started", step, what)
				}
				<-lb.parked
				m.pending = append(m.pending, lb)
				history[k] = append(history[k], lb.n)
			}
			if sc.late != nil && sc.out == buildLateThenFail && wantErr != nil && !errors.As(wantErr, new(*BreakerOpenError)) {
				// The build failed while a late result for its key landed: that
				// result is what the server's stale-cache rung then serves.
				if n, ok := h.c.GetCached(k); !ok || n != sc.late.n {
					return fmt.Errorf("step %d %s: GetCached = (%p, %v), want the late result %p", step, what, n, ok, sc.late.n)
				}
			}
		case op < 11:
			what = fmt.Sprintf("Put(%v)", k)
			n := tinyNet(k.String())
			history[k] = append(history[k], n)
			m.st.Primed++
			if got, want := h.c.Put(k, n), m.insert(k, n); got != want {
				return fmt.Errorf("step %d %s returned %p, model %p", step, what, got, want)
			}
		case op < 14:
			// Attach the resident network, or one the cache does not hold: a
			// Put that lost the insert, an evicted entry's, or one never
			// offered at all.
			var n *graph.Network
			if e := m.peek(k); e != nil && op < 13 {
				n = e.n
			} else if old := history[k]; len(old) > 0 && rng.Intn(2) == 0 {
				n = old[rng.Intn(len(old))]
			} else {
				n = tinyNet(k.String())
			}
			aux := fmt.Sprintf("aux%d", step)
			auxNet[aux] = n
			attaches++
			what = fmt.Sprintf("Attach(%v, %p)", k, n)
			if got, want := h.c.Attach(k, n, aux), m.attach(k, n, aux); got != want {
				return fmt.Errorf("step %d %s = %v, model %v", step, what, got, want)
			}
		case op < 16:
			what = fmt.Sprintf("Attachment(%v)", k)
			aux, n, ok := h.c.Attachment(k)
			e := m.peek(k)
			if wantOK := e != nil && e.aux != nil; ok != wantOK || (ok && (aux != e.aux || n != e.n)) {
				return fmt.Errorf("step %d %s = (%v, %p, %v), model %s", step, what, aux, n, ok, describe([]*residentEntry{e}))
			}
			if ok && auxNet[aux] != n {
				return fmt.Errorf("step %d %s returned %v with %p, but it was attached to %p", step, what, aux, n, auxNet[aux])
			}
		case op < 17:
			what = fmt.Sprintf("GetCached(%v)", k)
			n, ok := h.c.GetCached(k)
			if e := m.peek(k); ok != (e != nil) || (ok && n != e.n) {
				return fmt.Errorf("step %d %s = (%p, %v), model %s", step, what, n, ok, describe([]*residentEntry{e}))
			}
		case op < 18:
			what = "advance past the breaker cooldown"
			clock.Advance(cooldown + time.Second)
		default:
			what = fmt.Sprintf("land %d late builds", len(m.pending))
			for len(m.pending) > 0 {
				lb := m.pending[0]
				close(lb.release)
				want := m.st.LateBuilds + 1
				for deadline := time.Now().Add(10 * time.Second); h.c.Stats().LateBuilds < want; time.Sleep(20 * time.Microsecond) {
					if time.Now().After(deadline) {
						return fmt.Errorf("step %d: late build of %v never adopted", step, lb.key)
					}
				}
				m.adopt(lb, clock.Now())
			}
		}
		if err := h.check(m, clock.Now(), prevBr, prevSt, attaches); err != nil {
			return fmt.Errorf("step %d (%s): %v", step, what, err)
		}
	}
	return nil
}

// TestCacheMatchesModel runs seeded random operation streams — Gets whose
// builds succeed, fail, panic, overrun BuildTimeout and land late, or see a
// late result land mid-build; Puts; Attaches with the resident or a
// superseded network; Attachment and GetCached probes; breaker cooldowns; and
// late landings — against the cache and the reference model, comparing after
// every step the resident keys in LRU order with their networks and
// attachments, the breaker, and every counter. Masked keys build through a
// nested Get of their parent. TestNoAttachmentIsPlainLRU is this test's
// attachment-free ancestor. The concurrent variant checks what holds under
// any interleaving; the nested one races derived keys against their parents.
func TestCacheMatchesModel(t *testing.T) {
	seeds, steps := 200, 500
	if testing.Short() {
		seeds, steps = 20, 200
	}
	t.Run("sequential", func(t *testing.T) {
		// Slow builds cost modelBuildTimeout of wall-clock time each; runs are
		// independent, so several go at once.
		var next, overran atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for seed := next.Add(1); seed <= int64(seeds); seed = next.Add(1) {
					switch err := runModel(seed, steps); {
					case errors.Is(err, errOverran):
						overran.Add(1)
					case err != nil:
						t.Errorf("seed %d: %v", seed, err)
					}
				}
			}()
		}
		wg.Wait()
		if n := overran.Load(); n > int64(seeds)/10 {
			t.Fatalf("%d of %d runs abandoned because a fast build overran %v", n, seeds, modelBuildTimeout)
		} else if n > 0 {
			t.Logf("%d of %d runs abandoned because a fast build overran %v", n, seeds, modelBuildTimeout)
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		for seed := int64(1); seed <= int64(seeds)/25; seed++ {
			runConcurrent(t, seed, steps)
		}
	})
	t.Run("nested", func(t *testing.T) {
		for round := 0; round < seeds/10; round++ {
			runNested(t)
		}
	})
}

// runConcurrent has four clients share one cache — Gets whose builds fail or
// panic a fifth of the time, Puts, Attaches and probes, the breaker's clock
// advancing now and then — and checks what holds under any interleaving: every
// network returned was built for the key asked, no two builds of a key overlap,
// an attachment comes back only with the network it was attached to, and the
// counters balance the operations issued.
func runConcurrent(t *testing.T, seed int64, steps int) {
	const capacity, threshold = 3, 2
	clock := newFakeClock()
	var mu sync.Mutex
	draws := rand.New(rand.NewSource(seed))
	active := map[Key]int{}
	auxNet := map[any]*graph.Network{}
	var gets, attaches, builds, failures atomic.Int64
	var c *Cache[*graph.Network]
	get := func(k Key) (*graph.Network, error) {
		gets.Add(1)
		n, err := c.Get(context.Background(), k)
		if n != nil && n.Name[0] != k.String() {
			t.Errorf("seed %d: Get(%v) returned the network built for %q", seed, k, n.Name[0])
		}
		return n, err
	}
	c = New(func(ctx context.Context, k Key) (*graph.Network, error) {
		builds.Add(1)
		mu.Lock()
		active[k]++
		overlap, draw := active[k] > 1, draws.Intn(10)
		mu.Unlock()
		failed := true
		defer func() {
			mu.Lock()
			active[k]--
			mu.Unlock()
			if failed {
				failures.Add(1)
			}
		}()
		if overlap {
			t.Errorf("seed %d: two builds of %v in flight", seed, k)
		}
		if k.Mask != "" {
			if _, err := get(parentOf(k)); err != nil && !errors.As(err, new(*BreakerOpenError)) {
				return nil, err
			}
		}
		switch draw {
		case 0:
			return nil, errScripted
		case 1:
			panic("scripted panic")
		}
		failed = false
		return tinyNet(k.String()), nil
	}, Options{Capacity: capacity, BreakerThreshold: threshold, BreakerCooldown: 10 * time.Second, Clock: clock.Now})

	keys := modelKeys()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		rng := rand.New(rand.NewSource(seed*10 + int64(w)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for step := 0; step < steps; step++ {
				k := keys[rng.Intn(len(keys))]
				switch op := rng.Intn(20); {
				case op < 10:
					get(k) //nolint:errcheck // failures are scripted
				case op < 12:
					c.Put(k, tinyNet(k.String()))
				case op < 15:
					n, ok := c.GetCached(k)
					if !ok || op == 14 {
						n = tinyNet(k.String())
					}
					aux := fmt.Sprintf("aux%d/%d", w, step)
					mu.Lock()
					auxNet[aux] = n
					mu.Unlock()
					attaches.Add(1)
					c.Attach(k, n, aux)
				case op < 19:
					if aux, n, ok := c.Attachment(k); ok {
						mu.Lock()
						want := auxNet[aux]
						mu.Unlock()
						if n != want || n.Name[0] != k.String() {
							t.Errorf("seed %d: Attachment(%v) returned %v with %p, attached to %p", seed, k, aux, n, want)
						}
					}
				default:
					clock.Advance(11 * time.Second)
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != gets.Load() || st.Attachments+st.AttachMisses != attaches.Load() ||
		st.Builds != builds.Load() || st.Errors != failures.Load() {
		t.Errorf("seed %d: stats %+v do not balance %d Gets, %d Attaches, %d builds of which %d failed",
			seed, st, gets.Load(), attaches.Load(), builds.Load(), failures.Load())
	}
	if entries, inflight := c.resident(); len(entries) > capacity || inflight != 0 {
		t.Errorf("seed %d: %d entries resident (capacity %d), %d builds in flight after the last Get", seed, len(entries), capacity, inflight)
	}
	if br := c.Breaker(); br.State == BreakerClosed && br.FailureStreak >= threshold {
		t.Errorf("seed %d: breaker closed on a streak of %d", seed, br.FailureStreak)
	}
}

// runNested races Gets of derived keys, whose builds Get their parent through
// the same cache, against Gets of the parents: nothing deadlocks and every
// key is built exactly once.
func runNested(t *testing.T) {
	var mu sync.Mutex
	builds := map[Key]int{}
	var c *Cache[*graph.Network]
	c = New(func(ctx context.Context, k Key) (*graph.Network, error) {
		mu.Lock()
		builds[k]++
		mu.Unlock()
		time.Sleep(time.Millisecond) // widen the window for a second build
		if k.Mask != "" {
			if _, err := c.Get(ctx, parentOf(k)); err != nil {
				return nil, err
			}
		}
		return tinyNet(k.String()), nil
	}, Options{})
	keys := modelKeys()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for g := 0; g < 24; g++ {
		k := keys[g%len(keys)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n, err := c.Get(ctx, k); err != nil || n.Name[0] != k.String() {
				t.Errorf("Get(%v) = (%v, %v): deadlocked or crossed keys", k, n, err)
			}
		}()
	}
	wg.Wait()
	for _, k := range keys {
		if builds[k] != 1 {
			t.Errorf("%v built %d times, want once", k, builds[k])
		}
	}
}
