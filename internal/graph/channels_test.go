package graph

import (
	"testing"

	"leosim/internal/constellation"
	"leosim/internal/geo"
	"leosim/internal/ground"
)

func TestMaxGSLsPerSatellite(t *testing.T) {
	c, err := constellation.New([]constellation.Shell{constellation.StarlinkPhase1()})
	if err != nil {
		t.Fatal(err)
	}
	cities, err := ground.Cities(60)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := ground.NewSegment(cities, 3, 1500)
	if err != nil {
		t.Fatal(err)
	}

	unlimited, err := NewBuilder(c, seg, nil, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := NewBuilder(c, seg, nil, BuildOptions{MaxGSLsPerSatellite: 4})
	if err != nil {
		t.Fatal(err)
	}

	nu := unlimited.At(geo.Epoch)
	nc := capped.At(geo.Epoch)

	// The cap binds: fewer links overall, and no satellite above 4.
	if len(nc.Links) >= len(nu.Links) {
		t.Fatalf("cap did not reduce links: %d vs %d", len(nc.Links), len(nu.Links))
	}
	perSat := make([]int, nc.NumSat)
	for _, l := range nc.Links {
		sat := l.A
		if nc.Kind[sat] != NodeSatellite {
			sat = l.B
		}
		perSat[sat]++
	}
	for si, cnt := range perSat {
		if cnt > 4 {
			t.Fatalf("satellite %d serves %d terminals, cap is 4", si, cnt)
		}
	}

	// The kept links are the closest ones: for one loaded satellite, its
	// retained terminal distances are each ≤ every dropped distance.
	var satIdx int32 = -1
	for si, cnt := range perSat {
		if cnt == 4 {
			satIdx = int32(si)
			break
		}
	}
	if satIdx >= 0 {
		kept := map[int32]bool{}
		var maxKept float64
		for _, l := range nc.Links {
			term := l.A
			if term == satIdx {
				term = l.B
			} else if l.B != satIdx {
				continue
			}
			kept[term] = true
			if d := nc.Pos[term].Distance(nc.Pos[satIdx]); d > maxKept {
				maxKept = d
			}
		}
		for _, l := range nu.Links {
			term := l.A
			if term == satIdx {
				term = l.B
			} else if l.B != satIdx {
				continue
			}
			if !kept[term] {
				if d := nu.Pos[term].Distance(nu.Pos[satIdx]); d < maxKept-1e-9 {
					t.Fatalf("dropped a closer terminal (%.1f km) than a kept one (%.1f km)", d, maxKept)
				}
			}
		}
	}

	// Determinism.
	nc2 := capped.At(geo.Epoch)
	if len(nc2.Links) != len(nc.Links) {
		t.Fatalf("cap selection not deterministic")
	}
	for i := range nc.Links {
		if nc.Links[i] != nc2.Links[i] {
			t.Fatalf("link %d differs across builds", i)
		}
	}
}
