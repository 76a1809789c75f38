// Package aircraft provides the synthetic in-flight aircraft substrate that
// substitutes for the FlightAware dataset the paper uses: a catalogue of busy
// airports and intercontinental routes with corridor-calibrated frequencies,
// a deterministic daily schedule, aircraft positions at any instant, and the
// over-water filter that selects which aircraft may act as transit ground
// terminals (§3).
//
// The property the experiments depend on is the *asymmetry of corridor
// density* — the North Atlantic and North Pacific carry hundreds of
// concurrent flights while the South Atlantic and southern Indian Ocean carry
// a handful — because that is what makes BP paths detour (Fig 3) and
// congest.
package aircraft

// Airport is a major international airport used as a route endpoint.
type Airport struct {
	Code     string
	Lat, Lon float64
}

// airports are approximate coordinates of the hub airports the synthetic
// routes connect.
var airports = []Airport{
	{"JFK", 40.64, -73.78},   // New York
	{"BOS", 42.36, -71.01},   // Boston
	{"YYZ", 43.68, -79.63},   // Toronto
	{"ORD", 41.97, -87.91},   // Chicago
	{"MIA", 25.79, -80.29},   // Miami
	{"ATL", 33.64, -84.43},   // Atlanta
	{"DFW", 32.90, -97.04},   // Dallas
	{"IAD", 38.95, -77.46},   // Washington
	{"LAX", 33.94, -118.41},  // Los Angeles
	{"SFO", 37.62, -122.38},  // San Francisco
	{"SEA", 47.45, -122.31},  // Seattle
	{"YVR", 49.19, -123.18},  // Vancouver
	{"HNL", 21.32, -157.92},  // Honolulu
	{"ANC", 61.17, -150.00},  // Anchorage
	{"LHR", 51.47, -0.45},    // London
	{"CDG", 49.01, 2.55},     // Paris
	{"FRA", 50.03, 8.56},     // Frankfurt
	{"AMS", 52.31, 4.76},     // Amsterdam
	{"MAD", 40.47, -3.57},    // Madrid
	{"LIS", 38.77, -9.13},    // Lisbon
	{"FCO", 41.80, 12.25},    // Rome
	{"IST", 41.28, 28.75},    // Istanbul
	{"DME", 55.41, 37.90},    // Moscow
	{"GRU", -23.43, -46.47},  // São Paulo
	{"GIG", -22.81, -43.25},  // Rio de Janeiro
	{"EZE", -34.82, -58.54},  // Buenos Aires
	{"SCL", -33.39, -70.79},  // Santiago
	{"BOG", 4.70, -74.15},    // Bogotá
	{"LIM", -12.02, -77.11},  // Lima
	{"MEX", 19.44, -99.07},   // Mexico City
	{"REC", -8.13, -34.92},   // Recife (South Atlantic edge)
	{"JNB", -26.14, 28.25},   // Johannesburg
	{"CPT", -33.96, 18.60},   // Cape Town
	{"LOS", 6.58, 3.32},      // Lagos
	{"ACC", 5.61, -0.17},     // Accra
	{"DKR", 14.74, -17.49},   // Dakar
	{"CAI", 30.12, 31.41},    // Cairo
	{"ADD", 9.00, 38.80},     // Addis Ababa
	{"NBO", -1.32, 36.93},    // Nairobi
	{"DXB", 25.25, 55.36},    // Dubai
	{"DOH", 25.27, 51.61},    // Doha
	{"BOM", 19.09, 72.87},    // Mumbai
	{"DEL", 28.56, 77.10},    // Delhi
	{"SIN", 1.36, 103.99},    // Singapore
	{"KUL", 2.75, 101.71},    // Kuala Lumpur
	{"BKK", 13.69, 100.75},   // Bangkok
	{"HKG", 22.31, 113.91},   // Hong Kong
	{"PVG", 31.14, 121.81},   // Shanghai
	{"PEK", 40.08, 116.58},   // Beijing
	{"ICN", 37.46, 126.44},   // Seoul
	{"HND", 35.55, 139.78},   // Tokyo
	{"SYD", -33.95, 151.18},  // Sydney
	{"MEL", -37.67, 144.84},  // Melbourne
	{"BNE", -27.38, 153.12},  // Brisbane
	{"PER", -31.94, 115.97},  // Perth
	{"AKL", -37.01, 174.79},  // Auckland
	{"PPT", -17.56, -149.61}, // Papeete (South Pacific)
}

// AirportByCode returns the airport with the given IATA code, or false.
func AirportByCode(code string) (Airport, bool) {
	for _, a := range airports {
		if a.Code == code {
			return a, true
		}
	}
	return Airport{}, false
}
