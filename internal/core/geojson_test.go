package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

func TestWriteSnapshotGeoJSON(t *testing.T) {
	s := getTinySim(t)
	var buf bytes.Buffer
	if err := WriteSnapshotGeoJSON(context.Background(), &buf, s, 0, s.SnapshotTimes()[0]); err != nil {
		t.Fatal(err)
	}
	var col struct {
		Type     string `json:"type"`
		Features []struct {
			Type     string `json:"type"`
			Geometry struct {
				Type        string          `json:"type"`
				Coordinates json.RawMessage `json:"coordinates"`
			} `json:"geometry"`
			Properties map[string]interface{} `json:"properties"`
		} `json:"features"`
	}
	if err := json.Unmarshal(buf.Bytes(), &col); err != nil {
		t.Fatalf("invalid GeoJSON: %v", err)
	}
	if col.Type != "FeatureCollection" {
		t.Errorf("type = %q", col.Type)
	}
	sats, cities, paths := 0, 0, 0
	for _, f := range col.Features {
		switch f.Properties["kind"] {
		case "satellite":
			sats++
			if f.Geometry.Type != "Point" {
				t.Fatalf("satellite geometry %q", f.Geometry.Type)
			}
			var c []float64
			if err := json.Unmarshal(f.Geometry.Coordinates, &c); err != nil || len(c) != 2 {
				t.Fatalf("bad point coordinates: %s", f.Geometry.Coordinates)
			}
			if c[0] < -180 || c[0] > 180 || c[1] < -90 || c[1] > 90 {
				t.Fatalf("coordinates out of range: %v", c)
			}
		case "city":
			cities++
		case "path":
			paths++
			if f.Geometry.Type != "LineString" {
				t.Fatalf("path geometry %q", f.Geometry.Type)
			}
			var cs [][]float64
			if err := json.Unmarshal(f.Geometry.Coordinates, &cs); err != nil || len(cs) < 2 {
				t.Fatalf("bad line coordinates")
			}
			if f.Properties["rttMs"].(float64) <= 0 {
				t.Fatalf("path without RTT")
			}
		}
	}
	if sats != 1584 {
		t.Errorf("satellite features = %d", sats)
	}
	if cities != 2 {
		t.Errorf("city features = %d", cities)
	}
	if paths == 0 {
		t.Errorf("no path features")
	}
	if err := WriteSnapshotGeoJSON(context.Background(), &buf, s, 1<<20, s.SnapshotTimes()[0]); err == nil {
		t.Errorf("out-of-range pair must fail")
	}
}
