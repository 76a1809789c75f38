package graph

import (
	"fmt"
	"testing"
	"time"

	"leosim/internal/aircraft"
	"leosim/internal/constellation"
	"leosim/internal/geo"
	"leosim/internal/ground"
)

// advSetup wires a builder over the real Phase 1 shell with a modest ground
// segment and optionally an aircraft fleet; opts add constellation options
// (WithSGP4) to its ISLs.
func advSetup(t testing.TB, fleet bool, opts ...constellation.Option) *Builder {
	t.Helper()
	c, err := constellation.New([]constellation.Shell{constellation.StarlinkPhase1()},
		append(opts, constellation.WithISLs())...)
	if err != nil {
		t.Fatal(err)
	}
	cities, err := ground.Cities(25)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := ground.NewSegment(cities, 6, 1500)
	if err != nil {
		t.Fatal(err)
	}
	var fl *aircraft.Fleet
	if fleet {
		if fl, err = aircraft.NewFleet(0.2); err != nil {
			t.Fatal(err)
		}
	}
	b, err := NewBuilder(c, seg, fl, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// hybridAt is the fresh hybrid snapshot a hybrid cursor must reproduce at t.
func hybridAt(b *Builder, t time.Time) *Network { return b.Hybrid(b.At(t), t) }

// requireNetworksIdentical asserts got (an advanced network) is byte-for-byte
// the network want (a fresh At build): nodes, positions, the link list
// including float weights, and the frozen CSR layout.
func requireNetworksIdentical(t *testing.T, label string, got, want *Network) {
	t.Helper()
	if got.N() != want.N() || got.NumSat != want.NumSat || got.NumCity != want.NumCity ||
		got.NumRelay != want.NumRelay || got.NumAircraft != want.NumAircraft {
		t.Fatalf("%s: node layout differs: got %d/%d/%d/%d/%d want %d/%d/%d/%d/%d",
			label, got.N(), got.NumSat, got.NumCity, got.NumRelay, got.NumAircraft,
			want.N(), want.NumSat, want.NumCity, want.NumRelay, want.NumAircraft)
	}
	for i := range want.Pos {
		if got.Pos[i] != want.Pos[i] {
			t.Fatalf("%s: node %d position differs: %v vs %v", label, i, got.Pos[i], want.Pos[i])
		}
		if got.Kind[i] != want.Kind[i] || got.Name[i] != want.Name[i] {
			t.Fatalf("%s: node %d identity differs", label, i)
		}
	}
	if len(got.Links) != len(want.Links) {
		t.Fatalf("%s: link count %d vs %d", label, len(got.Links), len(want.Links))
	}
	for i := range want.Links {
		if got.Links[i] != want.Links[i] {
			t.Fatalf("%s: link %d differs:\n got %+v\nwant %+v", label, i, got.Links[i], want.Links[i])
		}
	}
	got.ensureCSR()
	want.ensureCSR()
	for i := range want.adjStart {
		if got.adjStart[i] != want.adjStart[i] {
			t.Fatalf("%s: CSR adjStart[%d] differs", label, i)
		}
	}
	for i := range want.adjEdges {
		if got.adjEdges[i] != want.adjEdges[i] {
			t.Fatalf("%s: CSR adjEdges[%d] differs", label, i)
		}
	}
	requireArcWeightsFresh(t, label, got)
}

// requireArcWeightsFresh asserts the CSR's arc weights are exact copies of
// their links' delays — the invariant every post-freeze writer of OneWayMs
// must restore.
func requireArcWeightsFresh(t *testing.T, label string, n *Network) {
	t.Helper()
	n.ensureCSR()
	if len(n.adjMs) != len(n.adjEdges) {
		t.Fatalf("%s: %d arc weights for %d arcs", label, len(n.adjMs), len(n.adjEdges))
	}
	for k, e := range n.adjEdges {
		if n.adjMs[k] != n.Links[e.Link].OneWayMs {
			t.Fatalf("%s: arc %d carries %v ms, its link %d says %v",
				label, k, n.adjMs[k], e.Link, n.Links[e.Link].OneWayMs)
		}
	}
}

// requireTreesIdentical asserts full shortest-path trees from a few sources
// agree bit for bit between got and want: what a stale arc weight would
// silently break.
func requireTreesIdentical(t *testing.T, label string, got, want *Network) {
	t.Helper()
	for _, src := range []int32{got.CityNode(0), got.CityNode(got.NumCity - 1), got.SatNode(17)} {
		gd, gp := searchTree(got, src, nil, nil)
		wd, wp := searchTree(want, src, nil, nil)
		for v := range wd {
			if gd[v] != wd[v] || gp[v] != wp[v] {
				t.Fatalf("%s: tree from %d at node %d: got (%v, %d), fresh build (%v, %d)",
					label, src, v, gd[v], gp[v], wd[v], wp[v])
			}
		}
	}
}

// TestArcWeightsFollowAdvance is the stale-weight guard for the places arc
// weights are written outside a plain freeze — a step that only reweights
// (no GSL appears or vanishes, so the CSR is kept and refreshed in place)
// and Clone.
func TestArcWeightsFollowAdvance(t *testing.T) {
	b := advSetup(t, false)
	start := geo.Epoch.Add(2 * time.Hour)
	a := b.NewAdvancer(start, true)
	reweightOnly := 0
	for i := 1; i <= 40; i++ {
		tt := start.Add(time.Duration(i) * 100 * time.Millisecond)
		d := a.Advance(tt)
		if d.FullRebuild {
			t.Fatalf("step %d fell back: %s", i, d.Reason)
		}
		if len(d.Added)+len(d.Removed) > 0 {
			continue
		}
		reweightOnly++
		label := fmt.Sprintf("reweight-only t=+%dms", i*100)
		fresh := hybridAt(b, tt)
		requireNetworksIdentical(t, label, a.Net(), fresh)
		requireTreesIdentical(t, label, a.Net(), fresh)
		clone := a.Net().Clone()
		requireArcWeightsFresh(t, label+" clone", clone)
		requireTreesIdentical(t, label+" clone", clone, fresh)
	}
	if reweightOnly == 0 {
		t.Fatal("no step kept its link set; the in-place reweight path went untested")
	}

}

// advPropagators are the two propagation models a constellation runs under:
// the J2-secular Kepler model every experiment uses, and SGP4 (WithSGP4),
// whose short-period radial terms the Advancer's altSlackKm and rateSafety
// padding must absorb.
var advPropagators = []struct {
	name string
	opts []constellation.Option
}{
	{"kepler", nil},
	{"sgp4", []constellation.Option{constellation.WithSGP4()}},
}

// TestAdvanceDifferentialDay advances a hybrid network through a full
// simulated day in one-minute steps, under each propagator, and checks it
// against fresh At rebuilds at sampled instants.
func TestAdvanceDifferentialDay(t *testing.T) {
	for _, p := range advPropagators {
		t.Run(p.name, func(t *testing.T) {
			b := advSetup(t, false, p.opts...)
			a := b.NewAdvancer(geo.Epoch, true)
			const step = time.Minute
			for i := 1; i <= 24*60; i++ {
				tt := geo.Epoch.Add(time.Duration(i) * step)
				d := a.Advance(tt)
				if d.FullRebuild {
					t.Fatalf("step %d unexpectedly fell back: %s", i, d.Reason)
				}
				if i%60 == 0 {
					requireNetworksIdentical(t, fmt.Sprintf("t=+%dmin", i), a.Net(), hybridAt(b, tt))
				}
			}
			st := a.Stats()
			if st.Steps != 24*60 || st.FullRebuilds != 0 {
				t.Fatalf("stats = %+v", st)
			}
			if st.Added == 0 || st.Removed == 0 {
				t.Fatalf("a simulated day should churn GSLs: %+v", st)
			}
			if st.Rechecked == 0 || st.CellCrossings == 0 {
				t.Fatalf("incremental machinery idle: %+v", st)
			}
		})
	}
}

// TestAdvanceDifferentialSeconds exercises the 1-second resolution the
// advancer exists for — deadline-gated rechecks skip most pairs on most
// steps — including aircraft, under each propagator, and compares against
// At every 20 seconds.
func TestAdvanceDifferentialSeconds(t *testing.T) {
	for _, p := range advPropagators {
		t.Run(p.name, func(t *testing.T) {
			b := advSetup(t, true, p.opts...)
			start := geo.Epoch.Add(3 * time.Hour)
			a := b.NewAdvancer(start, true)
			for i := 1; i <= 240; i++ {
				tt := start.Add(time.Duration(i) * time.Second)
				a.Advance(tt)
				if i%20 == 0 {
					requireNetworksIdentical(t, fmt.Sprintf("t=+%ds", i), a.Net(), hybridAt(b, tt))
				}
			}
			// The whole point at 1 s resolution: the deadline gate must spare
			// the bulk of the candidate evaluations. Rechecking every pair
			// every step would cost steps × (total candidate pairs); require
			// at least a 2× saving (in practice it is far larger).
			st := a.Stats()
			pairs := int64(0)
			for i := range a.terms {
				pairs += int64(len(a.terms[i].cands))
			}
			if budget := int64(st.Steps) * pairs / 2; st.Rechecked >= budget {
				t.Fatalf("deadline gate ineffective: %d rechecks over %d steps (budget %d)",
					st.Rechecked, st.Steps, budget)
			}
		})
	}
}

// TestAdvanceDifferentialMasked: a fault mask (the fault.Outages contract: a
// WithLinks derivation over the filtered link list) applied to an advanced
// network yields the bytes it yields on a freshly built one — advancing and
// masking commute with building and masking, so a mask never needs a cursor of
// its own.
func TestAdvanceDifferentialMasked(t *testing.T) {
	masked := func(n *Network) *Network {
		var links []Link
		for _, l := range n.Links {
			// Knock out every 37th satellite's links entirely and degrade
			// the GSL capacity of every 11th — deterministic, order-free.
			sat := l.A
			if n.Kind[sat] != NodeSatellite {
				sat = l.B
			}
			if n.Kind[sat] == NodeSatellite {
				if sat%37 == 0 {
					continue
				}
				if l.Kind == LinkGSL && sat%11 == 0 {
					l.CapGbps /= 2
				}
			}
			links = append(links, l)
		}
		return n.WithLinks(links)
	}
	b := advSetup(t, false)
	start := geo.Epoch.Add(12 * time.Hour)
	a := b.NewAdvancer(start, true)
	for i := 1; i <= 120; i++ {
		tt := start.Add(time.Duration(i) * 30 * time.Second)
		if d := a.Advance(tt); d.FullRebuild {
			t.Fatalf("step %d fell back: %s", i, d.Reason)
		}
		if i%15 == 0 {
			label := fmt.Sprintf("masked t=+%ds", i*30)
			got, want := masked(a.Net()), masked(hybridAt(b, tt))
			if len(got.Links) == len(a.Net().Links) {
				t.Fatalf("%s: the mask removed nothing", label)
			}
			requireNetworksIdentical(t, label, got, want)
			requireTreesIdentical(t, label, got, want)
		}
	}
}

// TestAdvanceDeltaLogConsistency replays the per-step delta log against the
// previous GSL edge set and requires it to reproduce each step's network.
func TestAdvanceDeltaLogConsistency(t *testing.T) {
	b := advSetup(t, true)
	start := geo.Epoch.Add(6 * time.Hour)
	a := b.NewAdvancer(start, true)
	gsl := gslSet(a.Net())
	epoch := a.Net().Epoch()
	for i := 1; i <= 90; i++ {
		tt := start.Add(time.Duration(i) * 2 * time.Second)
		d := a.Advance(tt)
		if d.Epoch != epoch+1 {
			t.Fatalf("step %d: epoch %d, want %d", i, d.Epoch, epoch+1)
		}
		epoch = d.Epoch
		if d.FullRebuild {
			// Rebuild steps (here: the aircraft set changed) carry no edge
			// diff; the log consumer resyncs from the fresh snapshot.
			if len(d.Added)+len(d.Removed) != 0 {
				t.Fatalf("step %d: rebuild delta carries edges", i)
			}
			gsl = gslSet(a.Net())
			continue
		}
		for _, e := range d.Removed {
			if !gsl[e] {
				t.Fatalf("step %d: removed absent edge %+v", i, e)
			}
			delete(gsl, e)
		}
		for _, e := range d.Added {
			if gsl[e] {
				t.Fatalf("step %d: added present edge %+v", i, e)
			}
			gsl[e] = true
		}
		now := gslSet(a.Net())
		if len(now) != len(gsl) {
			t.Fatalf("step %d: delta-replayed set has %d edges, network %d", i, len(gsl), len(now))
		}
		for e := range now {
			if !gsl[e] {
				t.Fatalf("step %d: edge %+v in network but not in replayed set", i, e)
			}
		}
	}
}

func gslSet(n *Network) map[GSLChange]bool {
	set := make(map[GSLChange]bool)
	for _, l := range n.Links {
		if l.Kind != LinkGSL {
			continue
		}
		term, sat := l.A, l.B
		if n.Kind[term] == NodeSatellite {
			term, sat = sat, term
		}
		set[GSLChange{Term: term, Sat: sat}] = true
	}
	return set
}

// TestAdvanceFallbacks covers every full-rebuild trigger and that the
// advancer recovers incrementally afterwards.
func TestAdvanceFallbacks(t *testing.T) {
	b := advSetup(t, false)
	a := b.NewAdvancer(geo.Epoch, false)

	if d := a.Advance(geo.Epoch); d.FullRebuild || len(d.Added)+len(d.Removed) != 0 {
		t.Fatalf("zero-length step should be a no-op: %+v", d)
	}

	tt := geo.Epoch.Add(time.Second)
	if d := a.Advance(tt); d.FullRebuild {
		t.Fatalf("1s step fell back: %s", d.Reason)
	}

	big := tt.Add(MaxAdvanceStep + time.Second)
	if d := a.Advance(big); !d.FullRebuild || d.Reason != "large-jump" {
		t.Fatalf("jump past MaxAdvanceStep: %+v", d)
	}
	requireNetworksIdentical(t, "after large-jump", a.Net(), b.At(big))

	if d := a.Advance(big.Add(-time.Second)); !d.FullRebuild || d.Reason != "backwards-step" {
		t.Fatalf("backwards step: %+v", d)
	}

	// Recovery: the state is rebuilt lazily and the next small step is
	// incremental again, still byte-identical.
	back := big.Add(-time.Second)
	if d := a.Advance(back.Add(2 * time.Second)); d.FullRebuild {
		t.Fatalf("post-rebuild step fell back: %s", d.Reason)
	}
	requireNetworksIdentical(t, "post-rebuild incremental", a.Net(), b.At(back.Add(2*time.Second)))
}

// TestAdvanceOptionFallbacks: options whose link sets couple terminals
// globally (GSO arc avoidance, beam caps) force a rebuild every step — and
// still match At exactly.
func TestAdvanceOptionFallbacks(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mut    func(*BuildOptions)
		reason string
	}{
		{"gso", func(o *BuildOptions) { o.GSO = ground.StarlinkGSOPolicy() }, "gso-policy"},
		{"beamcap", func(o *BuildOptions) { o.MaxGSLsPerSatellite = 4 }, "beam-cap"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := advSetup(t, false)
			tc.mut(&b.Opts)
			a := b.NewAdvancer(geo.Epoch, false)
			for i := 1; i <= 3; i++ {
				tt := geo.Epoch.Add(time.Duration(i) * time.Second)
				d := a.Advance(tt)
				if !d.FullRebuild || d.Reason != tc.reason {
					t.Fatalf("step %d: %+v", i, d)
				}
				requireNetworksIdentical(t, tc.name, a.Net(), b.At(tt))
			}
		})
	}
}

// TestAdvanceCloneIsolation: snapshots handed out via Clone must not change
// under later advances.
func TestAdvanceCloneIsolation(t *testing.T) {
	b := advSetup(t, false)
	a := b.NewAdvancer(geo.Epoch, true)
	t1 := geo.Epoch.Add(time.Second)
	a.Advance(t1)
	snap := a.Net().Clone()
	for i := 2; i <= 60; i++ {
		a.Advance(geo.Epoch.Add(time.Duration(i) * time.Second))
	}
	requireNetworksIdentical(t, "clone after 59 more steps", snap, hybridAt(b, t1))
	if snap.Epoch() == a.Net().Epoch() {
		t.Fatal("epoch should have moved past the clone")
	}
}

// TestAdvanceAllocs pins the steady-state allocation budget of one advance
// step. The remaining allocations are the position fan-out goroutines; the
// candidate, index, link and CSR buffers must all be reused.
func TestAdvanceAllocs(t *testing.T) {
	b := advSetup(t, false)
	a := b.NewAdvancer(geo.Epoch, true)
	tt := geo.Epoch
	for i := 0; i < 30; i++ { // settle buffers to steady state
		tt = tt.Add(time.Second)
		a.Advance(tt)
	}
	step := 0
	allocs := testing.AllocsPerRun(50, func() {
		step++
		a.Advance(tt.Add(time.Duration(step) * time.Second))
	})
	if allocs > 128 {
		t.Errorf("Advance allocates %.0f objects/step; budget is 128", allocs)
	}
}

// fullBenchSetup builds the paper-scale benchmark fixture: the full 1,000
// traffic cities over a 4° transit-relay grid (≈1,900 static terminals,
// ≈21k links) under Starlink phase 1 with ISLs. The snapshot-engine numbers
// in BENCH_snapshot.json are recorded against this fixture.
func fullBenchSetup(b *testing.B) *Builder {
	b.Helper()
	c, err := constellation.New([]constellation.Shell{constellation.StarlinkPhase1()},
		constellation.WithISLs())
	if err != nil {
		b.Fatal(err)
	}
	cities, err := ground.Cities(1000)
	if err != nil {
		b.Fatal(err)
	}
	seg, err := ground.NewSegment(cities, 4, 1500)
	if err != nil {
		b.Fatal(err)
	}
	bld, err := NewBuilder(c, seg, nil, BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return bld
}

// BenchmarkBuildAt is the baseline: one full snapshot rebuild per simulated
// second at paper scale. Compare with BenchmarkAdvance (BENCH_snapshot.json
// records both; scripts/bench.sh snapshot refreshes it).
func BenchmarkBuildAt(b *testing.B) {
	bld := fullBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = hybridAt(bld, geo.Epoch.Add(time.Duration(i)*time.Second))
	}
}

// BenchmarkAdvance measures one incremental 1-second step against the same
// fixture as BenchmarkBuildAt.
func BenchmarkAdvance(b *testing.B) {
	bld := fullBenchSetup(b)
	a := bld.NewAdvancer(geo.Epoch, true)
	a.Advance(geo.Epoch.Add(time.Second)) // pay lazy state init outside the loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Advance(geo.Epoch.Add(time.Duration(i+2) * time.Second))
	}
}
