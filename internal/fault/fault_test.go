package fault

import (
	"math"
	"reflect"
	"testing"
	"time"

	"leosim/internal/constellation"
	"leosim/internal/geo"
	"leosim/internal/graph"
	"leosim/internal/ground"
	"leosim/internal/topo"
)

func testShell() constellation.Shell {
	return constellation.Shell{
		Name: "test", Planes: 6, SatsPerPlane: 8,
		AltitudeKm: 550, InclinationDeg: 53,
		RAANSpreadDeg: 360, MinElevationDeg: 25,
	}
}

func testConst(t *testing.T) *constellation.Constellation {
	t.Helper()
	c, err := constellation.New([]constellation.Shell{testShell()}, constellation.WithISLs())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// testNetwork builds the healthy hybrid network of c at testAt and returns it
// with the ground segment's terminal count.
func testNetwork(t *testing.T, c *constellation.Constellation) (*graph.Network, int) {
	t.Helper()
	cities, err := ground.Cities(12)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := ground.NewSegment(cities, 10, 1500)
	if err != nil {
		t.Fatal(err)
	}
	b, err := graph.NewBuilder(c, seg, nil, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return b.Hybrid(b.At(testAt), testAt), len(seg.Terminals)
}

var testAt = geo.Epoch.Add(3 * time.Hour)

// Same seed, same topology → byte-for-byte identical outages.
func TestRealizeDeterministic(t *testing.T) {
	c := testConst(t)
	p := Plan{Seed: 42, SatFraction: 0.2, PlaneFraction: 0.2, SiteFraction: 0.25,
		ISLFraction: 0.1, GSLCapFactor: 0.5}
	a, err := p.Realize(c, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Realize(c, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same plan realized differently:\n%+v\n%+v", a, b)
	}
	if a.NumFailedSats() == 0 || a.NumFailedSites() == 0 || a.NumFailedISLs() == 0 {
		t.Fatalf("plan with positive fractions failed nothing: %+v", a)
	}
	// A different seed must (for these sizes) pick a different set.
	p2 := p
	p2.Seed = 43
	d, err := p2.Realize(c, 20)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.FailedSats, d.FailedSats) && reflect.DeepEqual(a.FailedSites, d.FailedSites) {
		t.Errorf("different seeds realized identical outages")
	}
}

// Fraction 0 masks nothing: the masked network is the healthy one itself.
func TestZeroPlanIsNoOp(t *testing.T) {
	c := testConst(t)
	o, err := Plan{Seed: 7}.Realize(c, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !o.IsZero() {
		t.Fatalf("zero plan realized outages: %+v", o)
	}
	base, _ := testNetwork(t, c)
	if masked := o.Masked(base); masked != base {
		t.Errorf("zero-plan mask copied the network instead of returning the healthy one")
	}
	if masked := (*Outages)(nil).Masked(base); masked != base {
		t.Errorf("nil outages copied the network instead of returning the healthy one")
	}
}

// Plane outages are correlated: whole planes fail, nothing else.
func TestPlaneOutageCorrelated(t *testing.T) {
	c := testConst(t)
	sh := testShell()
	// 2 of 6 planes.
	o, err := Plan{Seed: 1, PlaneFraction: 2.0 / 6.0}.Realize(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := o.NumFailedSats(), 2*sh.SatsPerPlane; got != want {
		t.Fatalf("failed sats = %d, want %d (2 whole planes)", got, want)
	}
	// Every failed satellite's entire plane must be failed.
	for idx := range o.FailedSats {
		sat := c.Sats[idx]
		for slot := 0; slot < sh.SatsPerPlane; slot++ {
			j := c.SatIndex(sat.ShellIndex, sat.Plane, slot)
			if !o.FailedSats[int32(j)] {
				t.Fatalf("plane %d only partially failed (slot %d alive)", sat.Plane, slot)
			}
		}
	}
}

func TestFractionCounts(t *testing.T) {
	c := testConst(t) // 48 satellites
	o, err := Plan{Seed: 3, SatFraction: 0.25}.Realize(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.NumFailedSats(); got != 12 {
		t.Errorf("25%% of 48 sats = %d failed, want 12", got)
	}
	o, err = Plan{Seed: 3, SiteFraction: 0.5}.Realize(c, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.NumFailedSites(); got != 5 { // round(4.5) = 5
		t.Errorf("50%% of 9 sites = %d failed, want 5", got)
	}
}

// Mask removes every link of failed satellites and sites, drops failed
// lasers, and scales surviving GSL capacities.
func TestMaskRemovesFailures(t *testing.T) {
	c := testConst(t)
	p := Plan{Seed: 11, SatFraction: 0.2, SiteFraction: 0.2, ISLFraction: 0.2,
		GSLCapFactor: 0.5}
	base, numTerms := testNetwork(t, c)
	o, err := p.Realize(c, numTerms)
	if err != nil {
		t.Fatal(err)
	}
	healthy := append([]graph.Link(nil), base.Links...)
	masked := o.Masked(base)
	if len(masked.Links) >= len(base.Links) {
		t.Fatalf("mask removed nothing: %d -> %d links", len(base.Links), len(masked.Links))
	}
	if !reflect.DeepEqual(base.Links, healthy) {
		t.Fatal("masking wrote the healthy network's links")
	}
	for _, l := range masked.Links {
		switch l.Kind {
		case graph.LinkISL:
			if o.FailedSats[l.A] || o.FailedSats[l.B] {
				t.Fatalf("ISL %d-%d survives a failed satellite", l.A, l.B)
			}
			if o.ISLFailed(l.A, l.B) {
				t.Fatalf("failed laser %d-%d survives", l.A, l.B)
			}
		case graph.LinkGSL:
			sat, term := l.A, l.B
			if sat >= int32(masked.NumSat) {
				sat, term = term, sat
			}
			if o.FailedSats[sat] {
				t.Fatalf("GSL to failed satellite %d survives", sat)
			}
			if ti := term - int32(masked.NumSat); ti >= 0 && o.FailedSites[ti] {
				t.Fatalf("GSL to failed site %d survives", ti)
			}
			if want := graph.GSLCapGbps * 0.5; l.CapGbps != want {
				t.Fatalf("GSL capacity %v, want %v", l.CapGbps, want)
			}
		}
	}
	// Degree of failed satellites must be zero.
	for idx := range o.FailedSats {
		if d := len(masked.Edges(idx)); d != 0 {
			t.Fatalf("failed satellite %d still has degree %d", idx, d)
		}
	}
}

// Under a topology that re-places its lasers per snapshot, an ISL outage
// realized for instant t fails links of instant t: every masked pair is an
// ISL of the healthy network at t, and exactly round(f·|ISLsAt(t)|) ISL links
// disappear. (Drawing from the construction-time set — the epoch's placement
// — masked pairs that do not exist at t and over-reported NumFailedISLs.)
func TestISLOutageDrawsFromLinksAtT(t *testing.T) {
	nearest := topo.MustBuild(topo.Nearest, topo.Config{})
	c, err := constellation.New([]constellation.Shell{testShell()}, topo.Option(nearest))
	if err != nil {
		t.Fatal(err)
	}
	at := c.ISLsAt(testAt)
	if reflect.DeepEqual(at, c.ISLs) {
		t.Fatal("nearest placed the same links at the epoch and at testAt; the test needs them to differ")
	}
	healthy, numTerms := testNetwork(t, c)
	exists := map[[2]int32]bool{}
	healthyISLs := 0
	for _, l := range healthy.Links {
		if l.Kind == graph.LinkISL {
			exists[[2]int32{l.A, l.B}] = true
			healthyISLs++
		}
	}
	if healthyISLs != len(at) {
		t.Fatalf("healthy network carries %d ISLs, ISLsAt(t) has %d", healthyISLs, len(at))
	}

	const f = 0.2
	plan, err := ForScenario(ISLOutage, f, 5)
	if err != nil {
		t.Fatal(err)
	}
	o, err := plan.RealizeAt(c, numTerms, testAt)
	if err != nil {
		t.Fatal(err)
	}
	want := int(f*float64(len(at)) + 0.5)
	if o.NumFailedISLs() != want {
		t.Errorf("NumFailedISLs = %d, want round(%g·%d) = %d", o.NumFailedISLs(), f, len(at), want)
	}
	for key := range o.failedISL {
		if a, b := int32(key>>32), int32(key); !exists[[2]int32{a, b}] {
			t.Errorf("masked pair %d-%d is not an ISL of the healthy network at t", a, b)
		}
	}
	maskedISLs := 0
	for _, l := range o.Masked(healthy).Links {
		if l.Kind == graph.LinkISL {
			maskedISLs++
		}
	}
	if got := healthyISLs - maskedISLs; got != want {
		t.Errorf("%d ISL links disappeared, want %d", got, want)
	}
}

func TestForScenario(t *testing.T) {
	c := testConst(t)
	for _, sc := range Scenarios() {
		if !sc.Valid() {
			t.Errorf("scenario %q not Valid", sc)
		}
		p, err := ForScenario(sc, 0.1, 5)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if o, err := p.Realize(c, 20); err != nil || o.IsZero() {
			t.Errorf("%s at 10%% realizes no outage (%v)", sc, err)
		}
		z, err := ForScenario(sc, 0, 5)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if o, err := z.Realize(c, 20); err != nil || !o.IsZero() {
			t.Errorf("%s at 0%% realizes outages: %+v (%v)", sc, o, err)
		}
	}
	if _, err := ForScenario("meteor", 0.1, 5); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := ForScenario(SatOutage, 1.5, 5); err == nil {
		t.Error("fraction > 1 accepted")
	}
	if err := (Plan{SatFraction: -0.1}).Validate(); err == nil {
		t.Error("negative fraction accepted")
	}
	if err := (Plan{GSLCapFactor: 2}).Validate(); err == nil {
		t.Error("cap factor > 1 accepted")
	}
	// NaN fails every ordered comparison, so only a range check written as
	// !(x >= 0 && x <= 1) refuses it; pickFrac would turn it into a
	// negative slice bound.
	nan := math.NaN()
	for _, sc := range Scenarios() {
		if _, err := ForScenario(sc, nan, 5); err == nil {
			t.Errorf("%s: fraction NaN accepted", sc)
		}
	}
	for _, p := range []Plan{{SatFraction: nan}, {PlaneFraction: nan}, {SiteFraction: nan}, {ISLFraction: nan}, {GSLCapFactor: nan}} {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v accepted", p)
		}
	}
	if _, err := (Plan{SatFraction: 2}).Realize(testConst(t), 0); err == nil {
		t.Error("Realize accepted an invalid plan")
	}
	if _, err := (Plan{}).Realize(nil, 0); err == nil {
		t.Error("Realize accepted a nil constellation")
	}
}
