package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"leosim/internal/geo"
	"leosim/internal/graph"
	"leosim/internal/itur"
	"leosim/internal/stats"
)

func TestPathCurveZigZagVsISL(t *testing.T) {
	// Hand-built path: city → sat → relay (tropics) → sat → city.
	n := &graph.Network{}
	src := n.AddNode(graph.NodeCity, geo.LL(28.7, 77.1).ToECEF(), "delhi")
	s1 := n.AddNode(graph.NodeSatellite, geo.LatLon{Lat: 20, Lon: 85, Alt: 550}.ToECEF(), "s1")
	wet := n.AddNode(graph.NodeRelay, geo.LL(5, 95).ToECEF(), "wet-relay")
	s2 := n.AddNode(graph.NodeSatellite, geo.LatLon{Lat: -10, Lon: 110, Alt: 550}.ToECEF(), "s2")
	dst := n.AddNode(graph.NodeCity, geo.LL(-33.9, 151.2).ToECEF(), "sydney")
	n.NumSat = 0 // node layout irrelevant here
	links := []int32{
		n.AddLink(src, s1, graph.LinkGSL, 20),
		n.AddLink(s1, wet, graph.LinkGSL, 20),
		n.AddLink(wet, s2, graph.LinkGSL, 20),
		n.AddLink(s2, dst, graph.LinkGSL, 20),
	}
	zig := graph.Path{Nodes: []int32{src, s1, wet, s2, dst}, Links: links}
	zigCurve, err := pathCurve(n, zig, KuBand)
	if err != nil {
		t.Fatal(err)
	}

	// ISL-style path: city → sat → sat → city (middle hop is a laser).
	isl := n.AddLink(s1, s2, graph.LinkISL, 100)
	pure := graph.Path{Nodes: []int32{src, s1, s2, dst}, Links: []int32{links[0], isl, links[3]}}
	pureCurve, err := pathCurve(n, pure, KuBand)
	if err != nil {
		t.Fatal(err)
	}

	// The zig-zag transits the wet tropics; its worst-link attenuation
	// must exceed the endpoints-only ISL path at the operating point.
	if zigCurve.At(0.5) <= pureCurve.At(0.5) {
		t.Errorf("zig-zag %v dB should exceed ISL path %v dB at p=0.5%%",
			zigCurve.At(0.5), pureCurve.At(0.5))
	}
}

func TestPathCurveNoRadioHops(t *testing.T) {
	n := &graph.Network{}
	a := n.AddNode(graph.NodeSatellite, geo.LatLon{Lat: 0, Lon: 0, Alt: 550}.ToECEF(), "a")
	b := n.AddNode(graph.NodeSatellite, geo.LatLon{Lat: 0, Lon: 5, Alt: 550}.ToECEF(), "b")
	li := n.AddLink(a, b, graph.LinkISL, 100)
	c, err := pathCurve(n, graph.Path{Nodes: []int32{a, b}, Links: []int32{li}}, KuBand)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range c.A {
		if x != 0 {
			t.Fatalf("ISL-only path has attenuation %v", x)
		}
	}
}

func TestRunWeatherTiny(t *testing.T) {
	s := getTinySim(t)
	r, err := RunWeather(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if r.PairsUsed == 0 {
		t.Fatal("no pairs used")
	}
	if len(r.P995BP) != r.PairsUsed || len(r.P995ISL) != r.PairsUsed {
		t.Fatalf("lengths inconsistent")
	}
	for i := range r.P995BP {
		if r.P995BP[i] < 0 || r.P995ISL[i] < 0 {
			t.Fatalf("negative attenuation")
		}
		if r.P995BP[i] > 60 || r.P995ISL[i] > 60 {
			t.Fatalf("absurd attenuation: bp=%v isl=%v", r.P995BP[i], r.P995ISL[i])
		}
	}
	// §6 direction: BP attenuation distribution dominates ISL's (median).
	if adv := r.MedianAdvantageDB(); adv < 0 {
		t.Errorf("median ISL advantage = %v dB, want ≥ 0", adv)
	}
	var buf bytes.Buffer
	WriteWeatherReport(&buf, r, 8)
	if !strings.Contains(buf.String(), "fig6") {
		t.Errorf("report:\n%s", buf.String())
	}
}

func TestRunPairWeatherDelhiSydney(t *testing.T) {
	// The tiny 60-city set has no Australian city, so no relay grid reaches Australia and BP
	// cannot route there; use enough cities and relay density to bridge
	// the Indonesia→Australia gap the way the full-scale run does.
	scale := TinyScale()
	scale.NumCities = 150
	scale.RelaySpacingDeg = 2
	scale.RelayMaxKm = 2000
	scale.AircraftDensity = 1
	scale.NumSnapshots = 3
	s, err := NewSim(Starlink, scale)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := RunPairWeather(context.Background(), s, "Delhi", "Sydney")
	if err != nil {
		t.Fatal(err)
	}
	bpDB, islDB, bpPow, islPow := pw.At1Percent()
	if bpDB <= 0 || islDB <= 0 {
		t.Fatalf("attenuations must be positive: %v %v", bpDB, islDB)
	}
	// Fig 8: the BP path transits the wet tropics, the ISL path does not.
	if bpDB <= islDB {
		t.Errorf("BP %v dB should exceed ISL %v dB at 1%% of time", bpDB, islDB)
	}
	if bpPow >= islPow {
		t.Errorf("BP received power %v should be below ISL %v", bpPow, islPow)
	}
	var buf bytes.Buffer
	WritePairWeatherReport(&buf, pw)
	if !strings.Contains(buf.String(), "fig8") {
		t.Errorf("report:\n%s", buf.String())
	}
}

func TestKaBandWorseThanKu(t *testing.T) {
	// §6: Ka band is affected more by weather. Run the same tiny sim at
	// both bands and compare median 99.5th-percentile attenuations.
	s := getTinySim(t)
	ku, err := RunWeatherBand(context.Background(), s, KuBand)
	if err != nil {
		t.Fatal(err)
	}
	ka, err := RunWeatherBand(context.Background(), s, KaBand)
	if err != nil {
		t.Fatal(err)
	}
	kuMed := stats.Percentile(ku.P995BP, 50)
	kaMed := stats.Percentile(ka.P995BP, 50)
	if kaMed <= kuMed {
		t.Errorf("Ka median %v dB should exceed Ku %v dB", kaMed, kuMed)
	}
	// And the ISL advantage persists at Ka.
	if ka.MedianAdvantageDB() <= 0 {
		t.Errorf("ISL advantage vanished at Ka: %v", ka.MedianAdvantageDB())
	}
}

func TestCurveSanityOnRealLink(t *testing.T) {
	// A Delhi-area uplink at Ku band: attenuation at 0.5% exceedance in a
	// plausible band (rain-dominated, not absurd).
	lp := itur.LinkParams{
		LatDeg: 28.7, LonDeg: 77.1, ElevationDeg: 40,
		FreqGHz: KuBand.UpGHz, Pol: itur.PolCircular,
	}
	c, err := itur.NewCurve(lp)
	if err != nil {
		t.Fatal(err)
	}
	if a := c.At(0.5); a < 0.2 || a > 25 {
		t.Errorf("Delhi Ku A(0.5%%) = %v dB", a)
	}
}
