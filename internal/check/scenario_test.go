package check

import (
	"fmt"
	"math/rand"

	"leosim/internal/constellation"
	"leosim/internal/graph"
	"leosim/internal/ground"
)

// Scenario is a deterministically generated miniature system — a small
// random Walker constellation, a handful of real cities, and traffic pairs —
// sized so property tests and fuzzers can sweep many of them quickly. The
// same seed always yields the same scenario.
type Scenario struct {
	Seed  int64
	Const *constellation.Constellation
	Seg   *ground.Segment
	// Pairs are city-index traffic pairs (indices into Seg.Cities).
	Pairs [][2]int
}

// RandomScenario generates the miniature system for a seed. Shell parameters
// are drawn from ranges wide enough to exercise polar stars, Walker deltas,
// seam phasing and multi-shell constellations, but small enough (≤ ~120
// satellites) that building and routing a snapshot takes microseconds.
func RandomScenario(seed int64) (*Scenario, error) {
	rng := rand.New(rand.NewSource(seed))

	nShells := 1 + rng.Intn(2)
	shells := make([]constellation.Shell, nShells)
	for i := range shells {
		planes := 2 + rng.Intn(5)   // 2..6
		perPlane := 3 + rng.Intn(6) // 3..8
		spread := 360.0
		if rng.Intn(3) == 0 {
			spread = 180 // polar star
		}
		shells[i] = constellation.Shell{
			Name:            fmt.Sprintf("rand-%d-%d", seed, i),
			Planes:          planes,
			SatsPerPlane:    perPlane,
			AltitudeKm:      500 + rng.Float64()*900,
			InclinationDeg:  35 + rng.Float64()*63, // 35..98 covers inclined + sun-sync-ish
			WalkerF:         rng.Intn(planes + 1),
			RAANSpreadDeg:   spread,
			RAANOffsetDeg:   rng.Float64() * 360,
			MinElevationDeg: 15 + rng.Float64()*25,
		}
	}
	c, err := constellation.New(shells, constellation.WithISLs())
	if err != nil {
		return nil, err
	}

	all, err := ground.Cities(40)
	if err != nil {
		return nil, err
	}
	perm := rng.Perm(len(all))
	nCities := 5 + rng.Intn(8)
	cities := make([]ground.City, 0, nCities)
	for _, ci := range perm[:nCities] {
		cities = append(cities, all[ci])
	}
	seg, err := ground.NewSegment(cities, 0, 0)
	if err != nil {
		return nil, err
	}

	sc := &Scenario{
		Seed:  seed,
		Const: c,
		Seg:   seg,
	}
	nPairs := 4 + rng.Intn(8)
	for p := 0; p < nPairs; p++ {
		a, b := rng.Intn(nCities), rng.Intn(nCities)
		if a == b {
			continue
		}
		sc.Pairs = append(sc.Pairs, [2]int{a, b})
	}
	return sc, nil
}

// Builder returns a snapshot-graph builder for the scenario.
func (sc *Scenario) Builder() (*graph.Builder, error) {
	return graph.NewBuilder(sc.Const, sc.Seg, nil, graph.BuildOptions{})
}

// Geometry returns the checking ground truth matched to the scenario.
// Sparse random shells have intra-plane chords that legitimately pass
// through the Earth, so the atmosphere floor stays disabled.
func (sc *Scenario) Geometry() *Geometry {
	return NewGeometry(sc.Const)
}
