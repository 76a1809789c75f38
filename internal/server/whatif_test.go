package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"leosim/internal/core"
	"leosim/internal/fault"
	"leosim/internal/graph"
	"leosim/internal/oracle"
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
				aux, n, ok := s.cache.Attachment(snapSpec{t: ts, mode: mode})
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
var survivingRouteMasks = []snapSpec{
	{scenario: fault.SatOutage, fraction: 0.05, seed: 1}, {scenario: fault.SatOutage, fraction: 0.3, seed: 2},
	{scenario: fault.PlaneOutage, fraction: 0.1, seed: 3}, {scenario: fault.SiteOutage, fraction: 0.2, seed: 4},
	{scenario: fault.ISLOutage, fraction: 0.3, seed: 5}, {scenario: fault.GSLDegrade, fraction: 0.5, seed: 6},
	{scenario: fault.SatOutage, fraction: 0, seed: 7},
}

// at is the fault of f at instant t under mode.
func (f snapSpec) at(t time.Time, mode core.Mode) snapSpec {
	f.t, f.mode = t, mode
	return f
}

// requireShortcutMatchesKernel asks every (src, dst) of the given sources
// through answer — which reads the healthy tree when the cut spares the route
// and searches the view otherwise — and of the kernel on the materialized
// masked network (Outages.Masked of the network rs views), and requires the
// two PathQuery values equal in every field: RTT to the bit, hop counts,
// per-kind relay counts and the named route. Every answer the kernel gives
// must have been directed by the healthy tree's row for dst when directed is
// set, and by no row otherwise. It returns how each answer was given.
func requireShortcutMatchesKernel(t *testing.T, s *Server, rs resolved, srcs []int, label string, directed bool) (survived, cut, unreachable int) {
	t.Helper()
	ctx := context.Background()
	sim := s.cfg.Sim
	outages, err := s.realize(rs.spec)
	if err != nil {
		t.Fatal(err)
	}
	masked := outages.Masked(rs.view.N)
	if got, want := len(rs.view.Cut), len(rs.view.N.Links)-len(masked.Links); got != want {
		t.Fatalf("%s: the view cuts %d links, the materialized mask removes %d", label, got, want)
	}
	var row []int32
	searched := false
	testHookKernelAnswer = func(tree []int32) { row, searched = tree, true }
	defer func() { testHookKernelAnswer = nil }()
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
			row, searched = nil, false
			got, err := s.answer(ctx, rs, src, dst, true)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case s.survivingAnswers.Value() == fromTree:
				cut++
				rooted := len(row) == rs.view.N.RowNodes() && row[rs.view.N.CityNode(dst)] == -1
				if !searched || (row != nil) != directed || (directed && !rooted) {
					t.Fatalf("%s %d→%d: searched by the kernel given a row of %d nodes (rooted at dst: %v), want a row rooted at dst: %v",
						label, src, dst, len(row), rooted, directed)
				}
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
// network with the cut banned, directed by the healthy tree — is the kernel's
// answer on the materialized masked network field for field. All three
// outcomes occur: routes the fault missed, routes it cut (answered by the
// kernel), and pairs the healthy day already cannot join. A server that primed
// no oracle answers every what-if by the kernel, and so does a bp-fallback
// view, whose key's healthy oracle is the hybrid day's: neither search may be
// given a row.
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
					rs, err := s.resolve(context.Background(), mask.at(s.times[i%2], mode))
					if err != nil {
						t.Fatal(err)
					}
					if rs.orc != nil {
						t.Fatalf("%s %s: a what-if resolved with an oracle of its own", mask, mode)
					}
					sv, c, u := requireShortcutMatchesKernel(t, s, rs, srcs, rs.spec.String(), true)
					if mask.scenario == fault.GSLDegrade || mask.fraction == 0 {
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

	// On a server that primed no oracle a what-if is the kernel's to answer,
	// undirected, and is counted so — although its masked build left the
	// healthy parent resident.
	t.Run("unprimed", func(t *testing.T) {
		s := newTestServer(t, Config{}) // nothing primed: no oracle anywhere
		answers := 0
		for i, mask := range survivingRouteMasks {
			for _, mode := range []core.Mode{core.BP, core.Hybrid} {
				rs, err := s.resolve(context.Background(), mask.at(s.times[i%2], mode))
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := s.cache.GetCached(rs.spec.healthy()); !ok {
					t.Fatalf("unprimed %s %s: the masked build did not leave its healthy parent resident", mask, mode)
				}
				survived, cut, unreachable := requireShortcutMatchesKernel(t, s, rs, []int{0, 19}, "unprimed "+rs.spec.String(), false)
				if survived+unreachable != 0 || cut == 0 {
					t.Fatalf("unprimed %s %s: %d answers read off a healthy tree no oracle holds, %d searched", mask, mode, survived+unreachable, cut)
				}
				answers += cut
			}
		}
		if s.kernelAnswers.Value() != int64(answers) || s.survivingAnswers.Value() != 0 {
			t.Fatalf("%d answers without a healthy oracle: %d kernel, %d surviving-route, want all and 0",
				answers, s.kernelAnswers.Value(), s.survivingAnswers.Value())
		}
	})

	// A hybrid what-if whose build failed is served the resident bent-pipe
	// view of the same mask. The healthy oracle of the key is then the
	// hybrid day's, an oracle of another network, whose link ids the
	// bent-pipe cut does not speak for: nothing is read off its tree, no
	// search is directed by it, and every answer is the kernel's on the
	// bent-pipe view — the kernel's answer on the materialized bent-pipe mask.
	t.Run("bp-fallback", func(t *testing.T) {
		s := newTestServer(t, Config{PrimeSnapshots: true, PrimeOracles: true})
		if _, err := s.primeAll(context.Background()); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		sat := snapSpec{scenario: fault.SatOutage, fraction: 0.1, seed: 9}
		bp, err := s.resolve(ctx, sat.at(s.times[1], core.BP))
		if err != nil {
			t.Fatal(err)
		}
		rs := resolved{
			spec:     sat.at(s.times[1], core.Hybrid),
			view:     bp.view,
			degraded: "bp-fallback",
		}
		srcs := []int{0, 7, 19, 33}
		survived, cut, unreachable := requireShortcutMatchesKernel(t, s, rs, srcs, "bp-fallback", false)
		if cut == 0 || survived+unreachable != 0 {
			t.Errorf("bp-fallback: %d answers read off the hybrid tree, %d searched; want none and all", survived+unreachable, cut)
		}
	})
}

// TestWhatIfSearchSettlesFewer counts the satellites a severed what-if
// answer's kernel search settles — before, under the free-space bound alone,
// and as served, directed by the healthy tree's row for the destination — on
// reduced seed 1 at snapshot 0, both modes, three 5 % satellite masks, four
// sources to every destination. Satellites, because both searches queue
// every satellite they reach and relax ground nodes through. The two searches
// settle the target at the same distance (float bits) along the same path;
// the tree settles under a quarter of the satellites.
func TestWhatIfSearchSettlesFewer(t *testing.T) {
	if testing.Short() {
		t.Skip("primes a reduced day")
	}
	scale := core.ReducedScale()
	scale.NumSnapshots = 1
	sim, err := core.NewSim(core.Starlink, scale)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Sim: sim, PrimeSnapshots: true, PrimeOracles: true})
	if _, err := s.primeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	settled := func(st *graph.SearchState, n *graph.Network) int {
		count := 0
		for v := int32(0); v < int32(n.NumSat); v++ {
			if st.Settled(v) {
				count++
			}
		}
		return count
	}
	var answers, before, after int
	for seed := int64(1); seed <= 3; seed++ {
		for _, mode := range []core.Mode{core.BP, core.Hybrid} {
			mask := snapSpec{t: s.times[0], mode: mode, scenario: fault.SatOutage, fraction: 0.05, seed: seed}
			rs, err := s.resolve(context.Background(), mask)
			if err != nil {
				t.Fatal(err)
			}
			healthy, hv := s.attachedOracle(rs.spec.healthy())
			if healthy == nil || hv.N != rs.view.N {
				t.Fatalf("%s %s: no healthy oracle of the view's network", mask, mode)
			}
			n := rs.view.N
			free, byTree := graph.AcquireSearch(), graph.AcquireSearch()
			for _, src := range []int{0, 41, 97, sim.NumCities() - 1} {
				for dst := 0; dst < sim.NumCities(); dst++ {
					if p, ok := healthy.Query(src, dst); dst == src || !ok || !rs.view.Cut.Severs(p) {
						continue
					}
					spec := graph.SearchSpec{Src: n.CityNode(src), Target: n.CityNode(dst)}
					rs.view.Search(free, spec)
					spec.Tree = healthy.Tree(dst)
					rs.view.Search(byTree, spec)
					p, ok := free.Path(spec.Target)
					q, treeOK := byTree.Path(spec.Target)
					if ok != treeOK || math.Float64bits(free.Dist(spec.Target)) != math.Float64bits(byTree.Dist(spec.Target)) || !reflect.DeepEqual(p, q) {
						t.Fatalf("%s %s %d→%d: free-space %v (%v ms), tree-directed %v (%v ms)",
							mask, mode, src, dst, p.Nodes, free.Dist(spec.Target), q.Nodes, byTree.Dist(spec.Target))
					}
					answers++
					before += settled(free, n)
					after += settled(byTree, n)
				}
			}
			free.Release()
			byTree.Release()
		}
	}
	if answers == 0 {
		t.Fatal("no route was severed")
	}
	t.Logf("%d severed what-if answers: %.1f satellites settled per answer under the free-space bound, %.1f directed by the healthy tree",
		answers, float64(before)/float64(answers), float64(after)/float64(answers))
	if 4*after >= before {
		t.Errorf("the healthy tree settled %d satellites, the free-space bound %d: want under a quarter", after, before)
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
		spec := snapSpec{t: s.times[1], mode: mode, scenario: fault.SatOutage, fraction: 0.05, seed: int64(40 + i)}
		builds := s.CacheStats().Builds
		var rs resolved
		missBytes := allocated(func() { rs, err = s.resolve(ctx, spec) })
		if err != nil {
			t.Fatal(err)
		}
		if got := s.CacheStats().Builds - builds; got != 1 {
			t.Fatalf("%s: the what-if ran %d builds, want 1 (a miss, its parent resident)", mode, got)
		}
		if resident, ok := s.cache.GetCached(rs.spec); !ok || resident != rs.view {
			t.Fatalf("%s: the what-if's view is not its resident entry", mode)
		}
		if rs.view.N != healthy.view.N || len(rs.view.Cut) == 0 {
			t.Fatalf("%s: the what-if's entry holds network %p with a cut of %d links, want its parent's %p and a non-empty cut",
				mode, rs.view.N, len(rs.view.Cut), healthy.view.N)
		}
		outages, err := s.realize(spec)
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
