package core

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"leosim/internal/geo"
	"leosim/internal/ground"
	"leosim/internal/topo"
)

// shared tiny sim, built once: most tests only read from it.
var (
	tinyOnce sync.Once
	tinySim  *Sim
	tinyErr  error
)

func getTinySim(t *testing.T) *Sim {
	t.Helper()
	tinyOnce.Do(func() {
		tinySim, tinyErr = NewSim(Starlink, TinyScale())
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinySim
}

func TestScaleValidate(t *testing.T) {
	for _, s := range []Scale{FullScale(), ReducedScale(), TinyScale()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	bad := TinyScale()
	bad.NumCities = 1
	if bad.Validate() == nil {
		t.Errorf("1 city must fail")
	}
	bad = TinyScale()
	bad.NumSnapshots = 0
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "NumSnapshots") {
		t.Errorf("0 snapshots: want a NumSnapshots error, got %v", err)
	}
	bad = TinyScale()
	bad.SnapshotStep = 0
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "SnapshotStep") {
		t.Errorf("zero step: want a SnapshotStep error, got %v", err)
	}
	bad = TinyScale()
	bad.SnapshotStep = -time.Minute
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "SnapshotStep") {
		t.Errorf("negative step: want a SnapshotStep error, got %v", err)
	}
	bad = TinyScale()
	bad.SnapshotStep = 900 * time.Second * 1000 // a "seconds as Duration-units" slip
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "week") {
		t.Errorf("week-long schedule: want a span error, got %v", err)
	}
}

func TestModeAndChoiceStrings(t *testing.T) {
	if BP.String() != "bp" || Hybrid.String() != "hybrid" {
		t.Errorf("mode strings")
	}
	if Starlink.String() != "starlink" || Kuiper.String() != "kuiper" {
		t.Errorf("choice strings")
	}
	if Starlink.Shell().Name != "starlink-p1" || Kuiper.Shell().Name != "kuiper-p1" {
		t.Errorf("shell presets")
	}
}

func TestSamplePairs(t *testing.T) {
	cities, err := ground.Cities(50)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := SamplePairs(cities, 100, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 100 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	seen := map[[2]int]bool{}
	for _, p := range pairs {
		if p.GeodesicKm <= 2000 {
			t.Fatalf("pair %v closer than 2000 km (%v)", p, p.GeodesicKm)
		}
		key := [2]int{p.Src, p.Dst}
		if seen[key] {
			t.Fatalf("duplicate pair %v", key)
		}
		seen[key] = true
		got := geo.GreatCircleKm(cities[p.Src].Position(), cities[p.Dst].Position())
		if math.Abs(got-p.GeodesicKm) > 1e-9 {
			t.Fatalf("cached geodesic wrong")
		}
	}
	// Deterministic under the same seed, different under another.
	again, _ := SamplePairs(cities, 100, 2000, 7)
	if pairs[0] != again[0] || pairs[50] != again[50] {
		t.Errorf("sampling not deterministic")
	}
	other, _ := SamplePairs(cities, 100, 2000, 8)
	same := true
	for i := range pairs {
		if pairs[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Errorf("different seeds gave identical samples")
	}
}

func TestSamplePairsEdgeCases(t *testing.T) {
	cities, _ := ground.Cities(5)
	// Requesting more pairs than exist returns all eligible.
	pairs, err := SamplePairs(cities, 10000, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 || len(pairs) > 10 {
		t.Errorf("got %d pairs from 5 cities", len(pairs))
	}
	// Impossible distance threshold errors.
	if _, err := SamplePairs(cities, 10, 1e9, 1); err == nil {
		t.Errorf("impossible threshold must fail")
	}
	if _, err := SamplePairs(cities[:1], 10, 0, 1); err == nil {
		t.Errorf("single city must fail")
	}
}

func TestGroupPairs(t *testing.T) {
	pairs := []Pair{{Src: 3, Dst: 0}, {Src: 1, Dst: 2}, {Src: 3, Dst: 1}, {Src: 2, Dst: 0}}
	got := groupPairs(pairs)
	want := map[int][]int{1: {1}, 2: {3}, 3: {0, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("groupPairs = %v, want %v", got, want)
	}
}

func TestNewSimBasics(t *testing.T) {
	s := getTinySim(t)
	if s.Const.Size() != 1584 {
		t.Errorf("satellite count = %d", s.Const.Size())
	}
	if len(s.Cities) != TinyScale().NumCities {
		t.Errorf("city count = %d", len(s.Cities))
	}
	if len(s.Pairs) != TinyScale().NumPairs {
		t.Errorf("pair count = %d", len(s.Pairs))
	}
	if got := len(s.SnapshotTimes()); got != TinyScale().NumSnapshots {
		t.Errorf("snapshots = %d", got)
	}
	if !strings.Contains(s.String(), "starlink") {
		t.Errorf("String() = %q", s.String())
	}
	bad := TinyScale()
	bad.NumPairs = 0
	if _, err := NewSim(Starlink, bad); err == nil {
		t.Errorf("invalid scale must fail")
	}
}

func TestNetworkAtCaching(t *testing.T) {
	s := getTinySim(t)
	t0 := s.SnapshotTimes()[0]
	a := s.NetworkAt(t0, BP)
	b := s.NetworkAt(t0, BP)
	if a != b {
		t.Errorf("same snapshot should be cached")
	}
	h := s.NetworkAt(t0, Hybrid)
	if h == a {
		t.Errorf("modes must not share networks")
	}
	// BP has no ISLs; hybrid does.
	for _, l := range a.Links {
		if l.Kind.String() == "isl" {
			t.Fatalf("BP network contains ISLs")
		}
	}
	islSeen := false
	for _, l := range h.Links {
		if l.Kind.String() == "isl" {
			islSeen = true
			break
		}
	}
	if !islSeen {
		t.Errorf("hybrid network has no ISLs")
	}
}

func TestRunLatencyTiny(t *testing.T) {
	s := getTinySim(t)
	r, err := RunLatency(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if r.ReachablePairs == 0 {
		t.Fatal("no reachable pairs")
	}
	if len(r.MinRTT[BP]) != r.ReachablePairs || len(r.RangeRTT[Hybrid]) != r.ReachablePairs {
		t.Fatalf("result lengths inconsistent")
	}
	nBetter := 0
	for i := range r.MinRTT[BP] {
		// Hybrid min RTT is never worse than BP: the hybrid graph is a
		// strict superset of the BP graph.
		if r.MinRTT[Hybrid][i] > r.MinRTT[BP][i]+1e-9 {
			t.Fatalf("pair %d: hybrid %v > bp %v", i, r.MinRTT[Hybrid][i], r.MinRTT[BP][i])
		}
		if r.MinRTT[Hybrid][i] < r.MinRTT[BP][i]-1e-9 {
			nBetter++
		}
		if r.RangeRTT[BP][i] < 0 || r.RangeRTT[Hybrid][i] < 0 {
			t.Fatalf("negative RTT range")
		}
	}
	if nBetter == 0 {
		t.Errorf("hybrid never strictly better — ISLs not helping?")
	}
	// Headline direction: BP varies at least as much as hybrid on median.
	med, p95 := r.Headline()
	if med < -20 {
		t.Errorf("median variation increase = %v%% — BP should vary more", med)
	}
	_ = p95
	if gap := r.MaxMinRTTGapMs(); gap < 0 {
		t.Errorf("negative max gap %v", gap)
	}

	var buf bytes.Buffer
	WriteLatencyReport(&buf, r, 10)
	out := buf.String()
	for _, want := range []string{"fig2a", "fig2b", "headline"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRunThroughputTiny(t *testing.T) {
	s := getTinySim(t)
	t0 := s.SnapshotTimes()[0]
	bp1, err := RunThroughput(context.Background(), s, BP, 1, t0)
	if err != nil {
		t.Fatal(err)
	}
	hy1, err := RunThroughput(context.Background(), s, Hybrid, 1, t0)
	if err != nil {
		t.Fatal(err)
	}
	hy4, err := RunThroughput(context.Background(), s, Hybrid, 4, t0)
	if err != nil {
		t.Fatal(err)
	}
	if bp1.AggregateGbps <= 0 || hy1.AggregateGbps <= 0 {
		t.Fatalf("throughput must be positive: bp=%v hy=%v", bp1.AggregateGbps, hy1.AggregateGbps)
	}
	// §5: hybrid beats BP.
	if hy1.AggregateGbps <= bp1.AggregateGbps {
		t.Errorf("hybrid (%v) should beat BP (%v) at k=1", hy1.AggregateGbps, bp1.AggregateGbps)
	}
	// Multipath helps the hybrid network.
	if hy4.AggregateGbps < hy1.AggregateGbps {
		t.Errorf("k=4 (%v) should not lose to k=1 (%v)", hy4.AggregateGbps, hy1.AggregateGbps)
	}
	if hy4.PathsFound <= hy1.PathsFound {
		t.Errorf("k=4 should find more paths")
	}
	if _, err := RunThroughput(context.Background(), s, BP, 0, t0); err == nil {
		t.Errorf("k=0 must fail")
	}
}

func TestRunFig4AndFig5Reports(t *testing.T) {
	s := getTinySim(t)
	rows, err := RunFig4(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("fig4 rows = %d", len(rows))
	}
	var buf bytes.Buffer
	WriteFig4Report(&buf, rows)
	if !strings.Contains(buf.String(), "hybrid/bp k=1") {
		t.Errorf("fig4 report:\n%s", buf.String())
	}

	pts, bp, err := RunFig5(context.Background(), s, []float64{0.5, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 || bp <= 0 {
		t.Fatalf("fig5: %v, bp=%v", pts, bp)
	}
	// Throughput is non-decreasing in ISL capacity.
	for i := 1; i < len(pts); i++ {
		if pts[i].AggregateGbps < pts[i-1].AggregateGbps-1e-6 {
			t.Errorf("fig5 not monotone: %v", pts)
		}
	}
	buf.Reset()
	WriteFig5Report(&buf, pts, bp)
	if !strings.Contains(buf.String(), "fig5") {
		t.Errorf("fig5 report:\n%s", buf.String())
	}
}

func TestRunDisconnectedTiny(t *testing.T) {
	s := getTinySim(t)
	r, err := RunDisconnected(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.FractionPerSnapshot) != s.Scale.NumSnapshots {
		t.Fatalf("snapshot count mismatch")
	}
	// §5: a substantial fraction of satellites is disconnected under BP
	// (25–31% at paper scale; the tiny scale has sparser relays so the
	// fraction can be larger, but must be strictly between 0 and 1).
	if r.Min <= 0 || r.Max >= 1 {
		t.Errorf("disconnected fraction out of range: min=%v max=%v", r.Min, r.Max)
	}
	if r.Mean < r.Min || r.Mean > r.Max {
		t.Errorf("mean outside [min,max]")
	}
	var buf bytes.Buffer
	WriteDisconnectReport(&buf, r)
	if !strings.Contains(buf.String(), "disconnected") {
		t.Errorf("report: %s", buf.String())
	}
}

func TestRunGSOArcTiny(t *testing.T) {
	s := getTinySim(t)
	rows, err := RunGSOArc(context.Background(), s, 40, []float64{0, 30, 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Equatorial terminals lose the most.
	if rows[0].FOVBlockedFrac <= rows[2].FOVBlockedFrac {
		t.Errorf("FoV blocking should decrease with latitude: %+v", rows)
	}
	for _, r := range rows {
		if r.VisibleSatsGSO > r.VisibleSatsFree {
			t.Errorf("constraint cannot add satellites: %+v", r)
		}
	}
	var buf bytes.Buffer
	WriteGSOReport(&buf, rows)
	if !strings.Contains(buf.String(), "fig9") {
		t.Errorf("report: %s", buf.String())
	}
}

func TestWithCities(t *testing.T) {
	s, err := NewSim(Starlink, TinyScale(), WithMotifID(topo.Ladder), WithSatelliteCapacity(0))
	if err != nil {
		t.Fatal(err)
	}
	before := s.Seg.NumCity
	d, err := s.WithCities("Maceió", "Maceió", s.CityName(0))
	if err != nil {
		t.Fatal(err)
	}
	if i, ok := d.FindCity("Maceió"); !ok || i != before {
		t.Fatalf("Maceió at (%d, %v), want index %d", i, ok, before)
	}
	if d.Seg.NumCity != before+1 || len(d.Cities) != before+1 {
		t.Errorf("derived sim has %d cities (%d listed), want %d", d.Seg.NumCity, len(d.Cities), before+1)
	}
	// The receiver is untouched, and is returned as is when nothing is missing.
	if _, ok := s.FindCity("Maceió"); ok || s.Seg.NumCity != before || len(s.Cities) != before {
		t.Errorf("WithCities changed its receiver: %d cities", s.Seg.NumCity)
	}
	if same, err := d.WithCities("Maceió"); err != nil || same != d {
		t.Errorf("WithCities with nothing missing = (%p, %v), want the receiver %p", same, err, d)
	}
	if _, err := s.WithCities("Atlantis"); err == nil {
		t.Errorf("unknown city must fail")
	}
	// A derivation keeps choice, scale, options and the traffic matrix; only
	// terminals are added, before an unchanged relay grid.
	if d.Motif == nil || d.Motif != s.Motif || d.SatCapGbps != 0 {
		t.Errorf("derived sim dropped options: motif %v, satellite capacity %v", d.Motif, d.SatCapGbps)
	}
	if !reflect.DeepEqual(d.Pairs, s.Pairs) || d.Seg.NumRelay != s.Seg.NumRelay {
		t.Errorf("derived sim changed pairs or relays")
	}
	// A second derivation keeps the first one's cities.
	dd, err := d.WithCities("Durban")
	if err != nil {
		t.Fatal(err)
	}
	if i, ok := dd.FindCity("Maceió"); !ok || i != before {
		t.Errorf("second derivation lost Maceió: (%d, %v)", i, ok)
	}
	if i, ok := dd.FindCity("Durban"); !ok || i != before+1 {
		t.Errorf("Durban at (%d, %v), want index %d", i, ok, before+1)
	}
	// The new city terminal is wired into built networks.
	n := d.NetworkAt(d.SnapshotTimes()[0], Hybrid)
	if n.NumCity != d.Seg.NumCity {
		t.Errorf("network city count %d, segment %d", n.NumCity, d.Seg.NumCity)
	}
}

func TestSatelliteCapacityModel(t *testing.T) {
	// The default per-satellite pool (20 Gbps) must constrain throughput
	// strictly harder than the per-link-only ablation, and it must hurt
	// BP (which bounces through many satellites) relatively more.
	pool, err := NewSim(Starlink, TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if pool.SatCapGbps != 20 {
		t.Fatalf("default SatCapGbps = %v, want 20", pool.SatCapGbps)
	}
	linkOnly, err := NewSim(Starlink, TinyScale(), WithSatelliteCapacity(0))
	if err != nil {
		t.Fatal(err)
	}
	t0 := pool.SnapshotTimes()[0]
	get := func(s *Sim, m Mode) float64 {
		r, err := RunThroughput(context.Background(), s, m, 4, t0)
		if err != nil {
			t.Fatal(err)
		}
		return r.AggregateGbps
	}
	bpPool, hyPool := get(pool, BP), get(pool, Hybrid)
	bpLink, hyLink := get(linkOnly, BP), get(linkOnly, Hybrid)
	if bpPool >= bpLink || hyPool >= hyLink {
		t.Errorf("pool model should constrain harder: bp %v/%v hy %v/%v",
			bpPool, bpLink, hyPool, hyLink)
	}
	if hyPool/bpPool <= hyLink/bpLink {
		t.Errorf("pool model should widen the hybrid advantage: %.2fx vs %.2fx",
			hyPool/bpPool, hyLink/bpLink)
	}
}
