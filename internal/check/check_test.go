package check

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"leosim/internal/geo"
	"leosim/internal/graph"
)

// buildBoth builds the bent-pipe and hybrid snapshot graphs of a scenario at
// epoch+offset.
func buildBoth(t *testing.T, sc *Scenario, offset time.Duration) (bp, hybrid *graph.Network) {
	t.Helper()
	b, err := sc.Builder()
	if err != nil {
		t.Fatalf("builder: %v", err)
	}
	at := geo.Epoch.Add(offset)
	bp = b.At(at)
	return bp, b.Hybrid(bp, at)
}

// buildAt builds the hybrid snapshot graph of a scenario at epoch+offset.
func buildAt(t *testing.T, sc *Scenario, offset time.Duration) *graph.Network {
	t.Helper()
	_, hybrid := buildBoth(t, sc, offset)
	return hybrid
}

// TestCleanScenarios sweeps randomized miniature systems through every
// invariant check: a correct pipeline must produce zero violations across
// seeds, snapshot times, transit modes and traffic pairs.
func TestCleanScenarios(t *testing.T) {
	offsets := []time.Duration{0, 17 * time.Minute, 3 * time.Hour}
	for seed := int64(1); seed <= 8; seed++ {
		sc, err := RandomScenario(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		geom := sc.Geometry()
		var r Report
		for _, off := range offsets {
			bp, n := buildBoth(t, sc, off)
			geom.CheckNetwork(&r, n)
			geom.CheckNetwork(&r, bp)
			for _, pair := range sc.Pairs {
				src, dst := n.CityNode(pair[0]), n.CityNode(pair[1])
				CheckOptimality(&r, n, src, dst, false)
				CheckOptimality(&r, n, src, dst, true)
				CheckSymmetry(&r, n, src, dst)
				CheckDominance(&r, bp, n, src, dst)
			}
		}
		if !r.OK() {
			for _, v := range r.Violations() {
				t.Errorf("seed %d: [%s] %s", seed, v.Class, v.Detail)
			}
			t.Fatalf("seed %d: %s", seed, r.Summary())
		}
		if r.CheckedCount("isl-links") == 0 || r.CheckedCount("gsl-links") == 0 {
			t.Fatalf("seed %d: checks ran over no links (%s)", seed, r.Summary())
		}
	}
}

// TestISLBoundsContainment samples one scenario densely over time and holds
// every ISL length to the closed-form bounds, independent of the graph
// layer: this pins the analytic derivation against the actual propagator.
func TestISLBoundsContainment(t *testing.T) {
	sc, err := RandomScenario(42)
	if err != nil {
		t.Fatal(err)
	}
	geom := sc.Geometry()
	for k := 0; k < 60; k++ {
		snap := sc.Const.SnapshotAt(geo.Epoch.Add(time.Duration(k) * 97 * time.Second))
		for _, l := range sc.Const.ISLs {
			sa, sb := sc.Const.Sats[l.A], sc.Const.Sats[l.B]
			if sa.ShellIndex != sb.ShellIndex {
				t.Fatalf("cross-shell ISL %v", l)
			}
			lo, hi := geom.islBoundsFor(sa.ShellIndex, sb.Plane-sa.Plane, sb.Slot-sa.Slot)
			d := snap.Pos[l.A].Distance(snap.Pos[l.B])
			if d < lo-geom.ISLSlackKm || d > hi+geom.ISLSlackKm {
				t.Fatalf("ISL %d-%d at t%d: length %.6f outside [%.6f,%.6f]",
					l.A, l.B, k, d, lo, hi)
			}
		}
	}
}

// TestIntraPlaneBoundsDegenerate checks the ΔΩ=0 collapse: intra-plane
// chords are constant, so the bounds must pinch to a single value.
func TestIntraPlaneBoundsDegenerate(t *testing.T) {
	sc, err := RandomScenario(7)
	if err != nil {
		t.Fatal(err)
	}
	geom := sc.Geometry()
	lo, hi := geom.islBoundsFor(0, 0, 1)
	if hi-lo > 1e-9 {
		t.Fatalf("intra-plane bounds not degenerate: [%v,%v]", lo, hi)
	}
}

// TestCorruptedLinkCaught injects one bad edge — a GSL rewired to a
// satellite far below the terminal's horizon, keeping the stale delay — and
// requires at least three distinct invariant classes to flag it. This is the
// detection-power acceptance test: a checker that only catches a corruption
// one way is one bug away from catching it zero ways.
func TestCorruptedLinkCaught(t *testing.T) {
	sc, err := RandomScenario(3)
	if err != nil {
		t.Fatal(err)
	}
	geom := sc.Geometry()
	n := buildAt(t, sc, 0)

	// Pick the first GSL and a satellite well below its terminal's horizon.
	gsl := -1
	for li, l := range n.Links {
		if l.Kind == graph.LinkGSL {
			gsl = li
			break
		}
	}
	if gsl < 0 {
		t.Fatal("scenario has no GSLs")
	}
	term, sat := n.Links[gsl].A, n.Links[gsl].B
	if !n.IsGroundSide(term) {
		term, sat = sat, term
	}
	badSat := int32(-1)
	for s := int32(0); s < int32(n.NumSat); s++ {
		if geo.Elevation(n.Pos[term], n.Pos[s]) < -30 {
			badSat = s
			break
		}
	}
	if badSat < 0 {
		t.Fatal("no below-horizon satellite found")
	}

	var clean Report
	geom.CheckNetwork(&clean, n)
	if !clean.OK() {
		t.Fatalf("pre-corruption graph not clean: %s", clean.Summary())
	}

	links := append([]graph.Link(nil), n.Links...)
	links[gsl].A, links[gsl].B = term, badSat // stale OneWayMs now also wrong
	n = n.WithLinks(links)

	var r Report
	geom.CheckNetwork(&r, n)
	if r.OK() {
		t.Fatal("corrupted link not detected")
	}
	for _, c := range []Class{ClassGSLElevation, ClassGSLRange, ClassLinkDelay} {
		if r.counts[c] == 0 {
			t.Errorf("class %s did not fire", c)
		}
	}
	if got := len(r.Classes()); got < 3 {
		t.Fatalf("corruption caught by %d classes (%v), want >= 3", got, r.Classes())
	}
	_ = sat
}

// TestPathChecksCatchFabrications verifies the path oracle rejects
// hand-broken paths of each flavor.
func TestPathChecksCatchFabrications(t *testing.T) {
	sc, err := RandomScenario(5)
	if err != nil {
		t.Fatal(err)
	}
	n := buildAt(t, sc, 0)
	var src, dst int32
	var p graph.Path
	found := false
	for _, pair := range sc.Pairs {
		src, dst = n.CityNode(pair[0]), n.CityNode(pair[1])
		if got, ok := n.ShortestPath(src, dst); ok && got.Hops() >= 2 {
			p, found = got, true
			break
		}
	}
	if !found {
		t.Skip("no multi-hop connected pair in this scenario")
	}

	var clean Report
	CheckPath(&clean, n, src, dst, p)
	if !clean.OK() {
		t.Fatalf("genuine shortest path rejected: %s", clean.Summary())
	}

	cases := []struct {
		name  string
		class Class
		mutat func(graph.Path) graph.Path
	}{
		{"wrong endpoint", ClassPathContinuity, func(p graph.Path) graph.Path {
			p.Nodes = append([]int32(nil), p.Nodes...)
			p.Nodes[len(p.Nodes)-1] = src
			return p
		}},
		{"phantom link", ClassPathContinuity, func(p graph.Path) graph.Path {
			p.Links = append([]int32(nil), p.Links...)
			p.Links[0] = int32(len(n.Links)) + 7
			return p
		}},
		{"disjoint hop", ClassPathContinuity, func(p graph.Path) graph.Path {
			p.Links = append([]int32(nil), p.Links...)
			p.Links[0], p.Links[len(p.Links)-1] = p.Links[len(p.Links)-1], p.Links[0]
			return p
		}},
		{"understated delay", ClassLatencyBound, func(p graph.Path) graph.Path {
			p.OneWayMs = p.OneWayMs / 1e6
			return p
		}},
	}
	for _, tc := range cases {
		var r Report
		CheckPath(&r, n, src, dst, tc.mutat(p))
		if r.counts[tc.class] == 0 {
			t.Errorf("%s: class %s did not fire (%s)", tc.name, tc.class, r.Summary())
		}
	}
}

func TestReportAccounting(t *testing.T) {
	var r Report
	if !r.OK() || r.Total() != 0 {
		t.Fatal("zero report not clean")
	}
	r.Checked("links", 3)
	r.SetContext("t+60s", "hybrid")
	for i := 0; i < maxSamplesPerClass+10; i++ {
		r.Violatef(ClassFlow, "violation %d", i)
	}
	r.Violatef(ClassGraphShape, "one-off")
	if r.OK() {
		t.Fatal("report with violations claims OK")
	}
	if got := r.counts[ClassFlow]; got != maxSamplesPerClass+10 {
		t.Fatalf("count %d, want %d", got, maxSamplesPerClass+10)
	}
	if got := len(r.Violations()); got != maxSamplesPerClass+1 {
		t.Fatalf("retained %d samples, want %d", got, maxSamplesPerClass+1)
	}
	if r.Total() != maxSamplesPerClass+11 {
		t.Fatalf("total %d", r.Total())
	}
	if cs := r.Classes(); len(cs) != 2 || cs[0] != ClassFlow || cs[1] != ClassGraphShape {
		t.Fatalf("classes %v", cs)
	}
	raw, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	s := string(raw)
	for _, want := range []string{`"ok":false`, `"snapshot":"t+60s"`, `"mode":"hybrid"`, `"flow-maxmin":30`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON missing %s in %s", want, s)
		}
	}
}

func TestScenarioDeterminism(t *testing.T) {
	a, err := RandomScenario(11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomScenario(11)
	if err != nil {
		t.Fatal(err)
	}
	if a.Const.Size() != b.Const.Size() || len(a.Pairs) != len(b.Pairs) ||
		len(a.Seg.Cities) != len(b.Seg.Cities) {
		t.Fatal("same seed produced different scenarios")
	}
	na, nb := buildAt(t, a, 0), buildAt(t, b, 0)
	if na.N() != nb.N() || len(na.Links) != len(nb.Links) {
		t.Fatalf("same seed produced different graphs: %d/%d nodes, %d/%d links",
			na.N(), nb.N(), len(na.Links), len(nb.Links))
	}
}
