package core

import (
	"fmt"
	"math/rand"

	"leosim/internal/geo"
	"leosim/internal/ground"
)

// Pair is a traffic demand between two cities (indices into Sim.Cities).
type Pair struct {
	Src, Dst int
	// GeodesicKm caches the great-circle separation.
	GeodesicKm float64
}

// SamplePairs reproduces the paper's traffic matrix: among all city pairs
// separated by more than minKm along the geodesic, pick n uniformly at
// random (without replacement), deterministically from seed. If fewer than n
// eligible pairs exist, all of them are returned.
func SamplePairs(cities []ground.City, n int, minKm float64, seed int64) ([]Pair, error) {
	if len(cities) < 2 {
		return nil, fmt.Errorf("core: need at least 2 cities")
	}
	var eligible []Pair
	for i := 0; i < len(cities); i++ {
		pi := cities[i].Position()
		for j := i + 1; j < len(cities); j++ {
			d := geo.GreatCircleKm(pi, cities[j].Position())
			if d > minKm {
				eligible = append(eligible, Pair{Src: i, Dst: j, GeodesicKm: d})
			}
		}
	}
	if len(eligible) == 0 {
		return nil, fmt.Errorf("core: no city pairs farther than %.0f km", minKm)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(eligible), func(a, b int) {
		eligible[a], eligible[b] = eligible[b], eligible[a]
	})
	if n > len(eligible) {
		n = len(eligible)
	}
	out := make([]Pair, n)
	copy(out, eligible[:n])
	return out, nil
}
