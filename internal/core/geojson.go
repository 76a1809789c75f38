package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"leosim/internal/geo"
	"leosim/internal/graph"
)

// GeoJSON export: snapshots and routed paths as a FeatureCollection that
// drops straight into geojson.io, kepler.gl, QGIS or Leaflet, for visual
// inspection of the BP zig-zag versus the ISL path (the Fig 1/3/7 pictures).

type geoJSONFeature struct {
	Type       string                 `json:"type"`
	Geometry   geoJSONGeometry        `json:"geometry"`
	Properties map[string]interface{} `json:"properties,omitempty"`
}

type geoJSONGeometry struct {
	Type        string      `json:"type"`
	Coordinates interface{} `json:"coordinates"`
}

type geoJSONCollection struct {
	Type     string           `json:"type"`
	Features []geoJSONFeature `json:"features"`
}

func pointFeature(ll geo.LatLon, props map[string]interface{}) geoJSONFeature {
	return geoJSONFeature{
		Type: "Feature",
		Geometry: geoJSONGeometry{
			Type:        "Point",
			Coordinates: []float64{round5(ll.Lon), round5(ll.Lat)},
		},
		Properties: props,
	}
}

func lineFeature(coords [][]float64, props map[string]interface{}) geoJSONFeature {
	return geoJSONFeature{
		Type:       "Feature",
		Geometry:   geoJSONGeometry{Type: "LineString", Coordinates: coords},
		Properties: props,
	}
}

func round5(x float64) float64 {
	return float64(int64(x*1e5+0.5*sign(x))) / 1e5
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

// WriteSnapshotGeoJSON emits a snapshot of the network for one pair: every
// satellite as a point, the pair's cities, and the shortest paths under both
// modes as LineStrings (split at the antimeridian is NOT performed; viewers
// handle it).
func WriteSnapshotGeoJSON(ctx context.Context, w io.Writer, s *Sim, pairIdx int, t time.Time) error {
	if pairIdx < 0 || pairIdx >= len(s.Pairs) {
		return fmt.Errorf("core: pair index %d out of range", pairIdx)
	}
	pair := s.Pairs[pairIdx]
	col := geoJSONCollection{Type: "FeatureCollection"}

	hy := s.NetworkAtCtx(ctx, t, Hybrid)
	for i := 0; i < hy.NumSat; i++ {
		ll := geo.FromECEF(hy.Pos[i])
		col.Features = append(col.Features, pointFeature(ll, map[string]interface{}{
			"kind": "satellite", "name": hy.Name[i],
		}))
	}
	for _, ci := range []int{pair.Src, pair.Dst} {
		col.Features = append(col.Features, pointFeature(
			s.Cities[ci].Position(), map[string]interface{}{
				"kind": "city", "name": s.Cities[ci].Name,
			}))
	}
	for _, mode := range []Mode{BP, Hybrid} {
		n := s.NetworkAtCtx(ctx, t, mode)
		p, ok := n.ShortestPath(n.CityNode(pair.Src), n.CityNode(pair.Dst))
		if !ok {
			continue
		}
		col.Features = append(col.Features, lineFeature(pathCoords(n, p),
			map[string]interface{}{
				"kind": "path", "mode": mode.String(),
				"rttMs": p.RTTMs(), "hops": p.Hops(),
			}))
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(col)
}

func pathCoords(n *graph.Network, p graph.Path) [][]float64 {
	out := make([][]float64, 0, len(p.Nodes))
	for _, v := range p.Nodes {
		ll := geo.FromECEF(n.Pos[v])
		out = append(out, []float64{round5(ll.Lon), round5(ll.Lat)})
	}
	return out
}
