package orbit_test

import (
	"fmt"
	"math"
	"time"

	"leosim/internal/geo"
	"leosim/internal/orbit"
)

// ExampleNewSGP4 parses the canonical ISS TLE and propagates it.
func ExampleNewSGP4() {
	tle, err := orbit.ParseTLE(
		"1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927",
		"2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537")
	if err != nil {
		panic(err)
	}
	prop, err := orbit.NewSGP4(tle)
	if err != nil {
		panic(err)
	}
	r, v, err := prop.PosVelECI(tle.Epoch)
	if err != nil {
		panic(err)
	}
	fmt.Printf("altitude %.0f km, speed %.2f km/s\n", r.Norm()-6378.135, v.Norm())
	// Output: altitude 342 km, speed 7.70 km/s
}

// ExampleCircular builds a Starlink-like orbit and reads its ground track.
func ExampleCircular() {
	el := orbit.Circular(550, 53, 0, 0, geo.Epoch)
	prop := orbit.NewKepler(el)
	fmt.Printf("period %.1f min\n", 2*math.Pi/el.MeanMotion()/60)
	p := orbit.SubsatellitePoint(prop, geo.Epoch.Add(10*time.Minute))
	fmt.Printf("northbound after 10 min: %v\n", p.Lat > 20 && p.Lat < 45)
	// Output:
	// period 95.5 min
	// northbound after 10 min: true
}
