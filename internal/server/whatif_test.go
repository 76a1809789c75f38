package server

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"leosim/internal/core"
	"leosim/internal/oracle"
	"leosim/internal/snapcache"
)

// TestWhatIfFloodKeepsPrimedDay is the regression test for what-if traffic
// demoting the healthy day: nothing on the GET path rebuilds an oracle, so a
// primed, oracle-carrying entry pushed out by one-shot masked entries (or by
// off-schedule instants) stayed a kernel search for the life of the process,
// and every mask whose parent had been evicted paid a rescan. Entries without
// an oracle must take the eviction instead, in LRU order among themselves —
// so the slots beside the primed day all keep serving what-ifs.
func TestWhatIfFloodKeepsPrimedDay(t *testing.T) {
	scale := core.TinyScale()
	scale.NumSnapshots = 6 // 12 healthy networks: more than the sim's own cache of 8 keeps
	sim, err := core.NewSim(core.Starlink, scale)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Sim: sim, PrimeSnapshots: true, PrimeOracles: true})
	if _, err := s.primeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	requirePrimedDay := func(when string) {
		t.Helper()
		for _, mode := range []core.Mode{core.BP, core.Hybrid} {
			for _, ts := range s.times {
				aux, n, ok := s.cache.Attachment(s.cacheKey(snapSpec{t: ts, mode: mode}))
				if o, isOracle := aux.(*oracle.Oracle); !ok || !isOracle || !o.Valid(n) {
					t.Fatalf("%s: %s@%v lost its primed entry or its oracle", when, mode, ts)
				}
			}
		}
	}
	requirePrimedDay("after priming")

	modes := []core.Mode{core.BP, core.Hybrid}
	path := func(i int, kv ...string) {
		t.Helper()
		pair := sim.Pairs[i%len(sim.Pairs)]
		url := q("/v1/path", append([]string{"src", sim.CityName(pair.Src), "dst", sim.CityName(pair.Dst),
			"mode", modes[i%2].String()}, kv...)...)
		if rec := getJSON(t, s.Handler(), url, nil); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, rec.Code, rec.Body.String())
		}
	}
	whatIf := func(firstSeed, i int) {
		t.Helper()
		path(i, "snap", strconv.Itoa(i/2%len(s.times)),
			"fault", "sat", "fraction", "0.05", "fault-seed", strconv.Itoa(firstSeed+i))
	}
	flood := func(firstSeed, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			whatIf(firstSeed, i)
		}
	}
	simBuilds, cacheBuilds := sim.NetworkCacheStats().Builds, s.CacheStats().Builds

	// Distinct (seed, snapshot, mode) what-ifs, five cache-fuls of them.
	floodSize := 5 * s.cfg.CacheSize
	flood(1, floodSize)
	requirePrimedDay("after the what-if flood")
	if got := sim.NetworkCacheStats().Builds - simBuilds; got != 0 {
		t.Errorf("the what-if flood cost the sim %d network builds, want 0: every mask derives from a resident parent", got)
	}

	// Healthy instants off the schedule: each is one new server-cache key and
	// a scan for the sim (two sim builds in hybrid mode: the base, then the
	// hybrid derived from it). More of them than the cache has room beside
	// the primed day.
	offSchedule, wantSim := s.cfg.CacheSize, int64(0)
	for i := 0; i < offSchedule; i++ {
		path(i, "t", fmt.Sprintf("%dm", 7+11*i))
		wantSim += 1 + int64(i%2)
	}
	requirePrimedDay("after the off-schedule instants")
	if got := sim.NetworkCacheStats().Builds - simBuilds; got != wantSim {
		t.Errorf("off-schedule instants cost the sim %d builds, want exactly their own %d", got, wantSim)
	}

	// And what-ifs again, into a cache now full of healthy entries. They age
	// the bare ones out: every slot beside the primed day ends up a what-if,
	// so repeating the most recent of them builds nothing.
	flood(1+floodSize, floodSize)
	requirePrimedDay("after the second flood")
	if got := sim.NetworkCacheStats().Builds - simBuilds; got != wantSim {
		t.Errorf("the second flood moved the sim's builds to %d, want %d still", got, wantSim)
	}
	for i := floodSize - (s.cfg.CacheSize - 2*len(s.times)); i < floodSize; i++ {
		whatIf(1+floodSize, i)
	}
	if got, want := s.CacheStats().Builds-cacheBuilds, int64(2*floodSize+offSchedule); got != want {
		t.Errorf("server cache ran %d builds for %d distinct new keys: a healthy entry was rebuilt, or the what-ifs did not keep the spare slots", got, want)
	}

	before := s.oracleHits.Value()
	for i := 0; i < 2*len(s.times); i++ {
		path(i, "snap", strconv.Itoa(i/2))
	}
	if got, want := s.oracleHits.Value()-before, int64(2*len(s.times)); got != want {
		t.Errorf("%d of %d healthy queries after the floods read a primed oracle", got, want)
	}
}

// survivingRouteMasks are the what-ifs the surviving-route answer is held to
// the kernel under: light and heavy satellite loss, whole planes, ground
// sites, lasers only, capacity only (no link leaves), and a mask that fails
// nothing (the masked key holds the healthy network itself).
var survivingRouteMasks = []string{
	"sat:0.05:1", "sat:0.3:2", "plane:0.1:3", "site:0.2:4", "isl:0.3:5", "gslcap:0.5:6", "sat:0:7",
}

// requireShortcutMatchesKernel asks every (src, dst) of the given sources
// through answer — which reads the healthy tree when the cut spares the route
// and searches the view otherwise — and of the kernel on the materialized
// masked network (Outages.Masked of the network rs views), and requires the
// two PathQuery values equal in every field: RTT to the bit, hop counts,
// per-kind relay counts and the named route. It returns how each answer was
// given.
func requireShortcutMatchesKernel(t *testing.T, s *Server, rs resolved, srcs []int, label string) (survived, cut, unreachable int) {
	t.Helper()
	ctx := context.Background()
	sim := s.cfg.Sim
	outages, err := s.realizeMask(rs.key.Mask, rs.key.Time)
	if err != nil {
		t.Fatal(err)
	}
	masked := outages.Masked(rs.view.N)
	if got, want := len(rs.view.Cut), len(rs.view.N.Links)-len(masked.Links); got != want {
		t.Fatalf("%s: the view cuts %d links, the materialized mask removes %d", label, got, want)
	}
	for _, src := range srcs {
		for dst := 0; dst < sim.NumCities(); dst++ {
			if dst == src {
				continue
			}
			want, err := sim.PathAt(ctx, masked, src, dst)
			if err != nil {
				t.Fatal(err)
			}
			fromTree := s.survivingAnswers.Value()
			got, err := s.answer(ctx, rs, src, dst, true)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case s.survivingAnswers.Value() == fromTree:
				cut++
			case got.Reachable:
				survived++
			default:
				unreachable++
			}
			if !reflect.DeepEqual(got, *want) {
				t.Fatalf("%s %d→%d: answer %+v, kernel on the materialized masked network %+v", label, src, dst, got, *want)
			}
		}
	}
	return survived, cut, unreachable
}

// TestSurvivingRouteMatchesKernel is the served differential behind the
// what-if view: over every ordered city pair, seven what-ifs and both modes,
// the served answer — read off the healthy tree, or searched on the healthy
// network with the cut banned — is the kernel's answer on the materialized
// masked network field for field. All three outcomes occur: routes the fault
// missed, routes it cut (answered by the kernel), and pairs the healthy day
// already cannot join.
func TestSurvivingRouteMatchesKernel(t *testing.T) {
	type preset struct {
		name  string
		scale core.Scale
		srcs  func(*core.Sim) []int
		// islands: the healthy day leaves some city pairs unjoined (tiny's
		// sparse ground segment does; reduced's 2,005 relays do not).
		islands bool
	}
	presets := []preset{{"tiny", core.TinyScale(), func(sim *core.Sim) []int {
		all := make([]int, sim.NumCities())
		for i := range all {
			all[i] = i
		}
		return all
	}, true}}
	if !testing.Short() {
		presets = append(presets, preset{"reduced", core.ReducedScale(), func(sim *core.Sim) []int {
			return []int{0, 41, 97, sim.NumCities() - 1}
		}, false})
	}
	for _, p := range presets {
		t.Run(p.name, func(t *testing.T) {
			p.scale.NumSnapshots = 2
			sim, err := core.NewSim(core.Starlink, p.scale)
			if err != nil {
				t.Fatal(err)
			}
			s := newTestServer(t, Config{Sim: sim, PrimeSnapshots: true, PrimeOracles: true})
			if _, err := s.primeAll(context.Background()); err != nil {
				t.Fatal(err)
			}
			srcs := p.srcs(sim)
			var survived, cut, unreachable int
			hits, surviving, kernel := s.oracleHits.Value(), s.survivingAnswers.Value(), s.kernelAnswers.Value()
			for i, mask := range survivingRouteMasks {
				for _, mode := range []core.Mode{core.BP, core.Hybrid} {
					rs, err := s.resolve(context.Background(), snapSpec{t: s.times[i%2], mode: mode, mask: mask})
					if err != nil {
						t.Fatal(err)
					}
					if rs.orc != nil {
						t.Fatalf("%s %s: a what-if resolved with an oracle of its own", mask, mode)
					}
					sv, c, u := requireShortcutMatchesKernel(t, s, rs, srcs, mask+" "+mode.String())
					if strings.HasPrefix(mask, "gslcap:") || strings.HasPrefix(mask, "sat:0:") {
						if c != 0 {
							t.Errorf("%s %s removes no link, yet %d routes were found cut", mask, mode, c)
						}
					}
					survived, cut, unreachable = survived+sv, cut+c, unreachable+u
				}
			}
			t.Logf("%d routes survived, %d were cut, %d pairs unreachable on the healthy day", survived, cut, unreachable)
			if survived == 0 || cut == 0 || (unreachable > 0) != p.islands {
				t.Errorf("outcomes not all exercised: %d survived, %d cut, %d unreachable-in-healthy", survived, cut, unreachable)
			}
			// The ledger: what-ifs never count as oracle hits; each answer is
			// counted once, as read off the healthy tree or as searched.
			if got := s.oracleHits.Value() - hits; got != 0 {
				t.Errorf("oracleHits moved by %d on what-ifs, want 0", got)
			}
			if got, want := s.survivingAnswers.Value()-surviving, int64(survived+unreachable); got != want {
				t.Errorf("survivingRouteAnswers moved by %d, want %d", got, want)
			}
			if got, want := s.kernelAnswers.Value()-kernel, int64(cut); got != want {
				t.Errorf("kernelAnswers moved by %d, want %d", got, want)
			}
		})
	}
}

// TestSurvivingRouteUnderBPFallback: a hybrid what-if whose build failed is
// served the resident bent-pipe view of the same mask. The healthy oracle of
// the key is then the hybrid day's, an oracle of another network, whose link
// ids the bent-pipe cut does not speak for: nothing is read off its tree, and
// every answer is the kernel's on the bent-pipe view — the kernel's answer on
// the materialized bent-pipe mask.
func TestSurvivingRouteUnderBPFallback(t *testing.T) {
	s := newTestServer(t, Config{PrimeSnapshots: true, PrimeOracles: true})
	if _, err := s.primeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bp, err := s.resolve(ctx, snapSpec{t: s.times[1], mode: core.BP, mask: "sat:0.1:9"})
	if err != nil {
		t.Fatal(err)
	}
	rs := resolved{
		key:      s.cacheKey(snapSpec{t: s.times[1], mode: core.Hybrid, mask: "sat:0.1:9"}),
		view:     bp.view,
		degraded: "bp-fallback",
	}
	srcs := []int{0, 7, 19, 33}
	survived, cut, unreachable := requireShortcutMatchesKernel(t, s, rs, srcs, "bp-fallback")
	if cut == 0 || survived+unreachable != 0 {
		t.Errorf("bp-fallback: %d answers read off the hybrid tree, %d searched; want none and all", survived+unreachable, cut)
	}
}

// TestAnswerCountersOnMetrics: the two counters for answers given without an
// oracle of the key's own are on /metrics in both formats.
func TestAnswerCountersOnMetrics(t *testing.T) {
	sim := serverSim(t)
	s := newTestServer(t, Config{PrimeSnapshots: true, PrimeOracles: true})
	if _, err := s.primeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		pair := sim.Pairs[i]
		url := q("/v1/path", "src", sim.CityName(pair.Src), "dst", sim.CityName(pair.Dst),
			"mode", "hybrid", "snap", "1", "fault", "sat", "fraction", "0.3", "fault-seed", "4")
		if rec := getJSON(t, s.Handler(), url, nil); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", url, rec.Code)
		}
	}
	var metrics struct {
		Server struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"server"`
	}
	if rec := getJSON(t, s.Handler(), "/metrics", &metrics); rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	c := metrics.Server.Counters
	if c["survivingRouteAnswers"]+c["kernelAnswers"] != 12 || c["oracleHits"] != 0 {
		t.Errorf("12 what-ifs counted as %d surviving-route + %d kernel answers and %d oracle hits, want 12 in all and 0",
			c["survivingRouteAnswers"], c["kernelAnswers"], c["oracleHits"])
	}
	prom := get(s, "/metrics?format=prometheus").Body.String()
	for _, name := range []string{"survivingRouteAnswers", "kernelAnswers"} {
		if want := fmt.Sprintf("leosim_%s %d\n", name, c[name]); !strings.Contains(prom, want) {
			t.Errorf("prometheus exposition lacks %q", want)
		}
	}
}

// TestSurvivingRouteNeedsAHealthyOracle: on a server that primed no oracle a
// what-if is the kernel's to answer, and is counted so.
func TestSurvivingRouteNeedsAHealthyOracle(t *testing.T) {
	s := newTestServer(t, Config{}) // nothing primed: no oracle anywhere
	rs, err := s.resolve(context.Background(), snapSpec{t: s.times[0], mode: core.BP, mask: "sat:0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.survivingRoute(rs, 0, 1); ok {
		t.Fatal("surviving-route answer given with no healthy oracle resident")
	}
	healthy := snapcache.Key{Scenario: rs.key.Scenario, Time: rs.key.Time}
	if _, ok := s.cache.GetCached(healthy); !ok {
		t.Fatal("the masked build did not leave its healthy parent resident")
	}
	if _, err := s.answer(context.Background(), rs, 0, 1, true); err != nil {
		t.Fatal(err)
	}
	if s.kernelAnswers.Value() != 1 || s.survivingAnswers.Value() != 0 {
		t.Fatalf("answer without a healthy oracle: %d kernel, %d surviving-route, want 1 and 0",
			s.kernelAnswers.Value(), s.survivingAnswers.Value())
	}
}

// TestWhatIfSharesItsParent is the regression test for a what-if owning a
// graph: its cache entry is a view of the healthy entry of the same instant
// and mode — that entry's very network, plus the cut — and the miss that
// makes it allocates under a tenth of what materializing the same mask does
// (Outages.Masked: a link list and a CSR of its own). At the served scale,
// where a mask is ~5 % of the links and the realization's draws are a small
// share of the miss.
func TestWhatIfSharesItsParent(t *testing.T) {
	scale := core.ReducedScale()
	scale.NumSnapshots = 2
	sim, err := core.NewSim(core.Starlink, scale)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Sim: sim})
	ctx := context.Background()
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for i, mode := range []core.Mode{core.BP, core.Hybrid} {
		healthy, err := s.resolve(ctx, snapSpec{t: s.times[1], mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		spec := snapSpec{t: s.times[1], mode: mode, mask: fmt.Sprintf("sat:0.05:%d", 40+i)}
		builds := s.CacheStats().Builds
		var rs resolved
		missBytes := allocated(func() { rs, err = s.resolve(ctx, spec) })
		if err != nil {
			t.Fatal(err)
		}
		if got := s.CacheStats().Builds - builds; got != 1 {
			t.Fatalf("%s: the what-if ran %d builds, want 1 (a miss, its parent resident)", mode, got)
		}
		if resident, ok := s.cache.GetCached(rs.key); !ok || resident != rs.view {
			t.Fatalf("%s: the what-if's view is not its resident entry", mode)
		}
		if rs.view.N != healthy.view.N || len(rs.view.Cut) == 0 {
			t.Fatalf("%s: the what-if's entry holds network %p with a cut of %d links, want its parent's %p and a non-empty cut",
				mode, rs.view.N, len(rs.view.Cut), healthy.view.N)
		}
		outages, err := s.realizeMask(spec.mask, spec.t)
		if err != nil {
			t.Fatal(err)
		}
		maskedBytes := allocated(func() { outages.Masked(healthy.view.N) })
		t.Logf("%s: the miss allocated %d B, Masked %d B", mode, missBytes, maskedBytes)
		if 10*missBytes >= maskedBytes {
			t.Errorf("%s: the what-if miss allocated %d B, not under a tenth of the %d B Masked allocates", mode, missBytes, maskedBytes)
		}
	}
}
