package check

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"leosim/internal/constellation"
	"leosim/internal/geo"
	"leosim/internal/graph"
	"leosim/internal/ground"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

// goldenPair is one city pair's routing outcome in the fixture.
type goldenPair struct {
	Src      string  `json:"src"`
	Dst      string  `json:"dst"`
	Hops     int     `json:"hops"`
	OneWayMs float64 `json:"oneWayMs"`
}

type goldenSnapshot struct {
	OffsetSec int          `json:"offsetSec"`
	Nodes     int          `json:"nodes"`
	GSLs      int          `json:"gsls"`
	ISLs      int          `json:"isls"`
	Pairs     []goldenPair `json:"pairs"`
}

// TestGoldenMini4x4 pins the full pipeline — propagation, graph build,
// routing — on a 4×4 mini-constellation to a canned fixture. Run with
// -update to regenerate testdata/mini4x4.json after an intentional change;
// any unintentional drift (propagator, builder ordering, Dijkstra
// tie-break, delay arithmetic) fails the diff.
func TestGoldenMini4x4(t *testing.T) {
	sh := constellation.Shell{
		Name: "mini", Planes: 4, SatsPerPlane: 4,
		AltitudeKm: 1400, InclinationDeg: 58, WalkerF: 1,
		RAANSpreadDeg: 360, MinElevationDeg: 5,
	}
	c, err := constellation.New([]constellation.Shell{sh}, constellation.WithISLs())
	if err != nil {
		t.Fatal(err)
	}
	cities := []ground.City{
		{Name: "Tokyo", Lat: 35.68, Lon: 139.69, Pop: 37},
		{Name: "New York", Lat: 40.71, Lon: -74.01, Pop: 19},
		{Name: "London", Lat: 51.51, Lon: -0.13, Pop: 9},
		{Name: "Sydney", Lat: -33.87, Lon: 151.21, Pop: 5},
	}
	seg, err := ground.NewSegment(cities, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := graph.NewBuilder(c, seg, nil, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}

	var snaps []goldenSnapshot
	for _, off := range []int{0, 120, 3600} {
		at := geo.Epoch.Add(time.Duration(off) * time.Second)
		n := b.Hybrid(b.At(at), at)
		gs := goldenSnapshot{OffsetSec: off, Nodes: n.N()}
		for _, l := range n.Links {
			switch l.Kind {
			case graph.LinkGSL:
				gs.GSLs++
			case graph.LinkISL:
				gs.ISLs++
			}
		}
		for a := 0; a < len(cities); a++ {
			for d := a + 1; d < len(cities); d++ {
				p, ok := n.ShortestPath(n.CityNode(a), n.CityNode(d))
				if !ok {
					continue
				}
				gs.Pairs = append(gs.Pairs, goldenPair{
					Src: cities[a].Name, Dst: cities[d].Name,
					Hops: p.Hops(), OneWayMs: p.OneWayMs,
				})
			}
		}
		snaps = append(snaps, gs)
	}
	got, err := json.MarshalIndent(snaps, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "mini4x4.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden mismatch for %s; rerun with -update if the change is intentional.\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}
