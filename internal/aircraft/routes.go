package aircraft

// Route is a bidirectional great-circle air route with a daily frequency.
type Route struct {
	From, To string
	// PerDay is the number of departures per day in EACH direction.
	PerDay int
}

// routes encode the corridor structure of intercontinental air traffic,
// calibrated so concurrent over-water counts reproduce the real asymmetry:
// hundreds of aircraft over the North Atlantic and North Pacific at any time,
// tens over the central/south Pacific and Indian Ocean, and only a handful
// over the South Atlantic — the asymmetry behind Fig 3.
var routes = []Route{
	// --- North Atlantic (very dense) ---
	{"JFK", "LHR", 20}, {"JFK", "CDG", 12}, {"JFK", "FRA", 8},
	{"JFK", "AMS", 6}, {"JFK", "MAD", 5}, {"JFK", "FCO", 4},
	{"BOS", "LHR", 8}, {"BOS", "CDG", 4}, {"BOS", "AMS", 3},
	{"YYZ", "LHR", 8}, {"YYZ", "CDG", 4}, {"YYZ", "FRA", 4},
	{"ORD", "LHR", 8}, {"ORD", "FRA", 5}, {"ORD", "AMS", 3},
	{"IAD", "LHR", 6}, {"IAD", "CDG", 4}, {"IAD", "FRA", 3},
	{"ATL", "LHR", 5}, {"ATL", "CDG", 4}, {"ATL", "AMS", 4},
	{"MIA", "LHR", 5}, {"MIA", "MAD", 5}, {"MIA", "LIS", 2},
	{"DFW", "LHR", 4}, {"DFW", "FRA", 2},
	{"JFK", "LIS", 3}, {"JFK", "IST", 3}, {"JFK", "DME", 2},
	// --- North Pacific (dense) ---
	{"LAX", "HND", 10}, {"LAX", "ICN", 6}, {"LAX", "PVG", 5},
	{"LAX", "HKG", 4}, {"LAX", "PEK", 4},
	{"SFO", "HND", 8}, {"SFO", "ICN", 5}, {"SFO", "HKG", 4},
	{"SFO", "PVG", 4},
	{"SEA", "HND", 4}, {"SEA", "ICN", 3},
	{"YVR", "HND", 4}, {"YVR", "ICN", 3}, {"YVR", "PVG", 3},
	{"ANC", "HND", 2},
	// --- Mid-Pacific ---
	{"HNL", "LAX", 8}, {"HNL", "SFO", 6}, {"HNL", "HND", 6},
	{"HNL", "SYD", 2}, {"HNL", "AKL", 1}, {"PPT", "LAX", 1},
	{"PPT", "AKL", 1},
	// --- Trans-Pacific south (sparse) ---
	{"SYD", "LAX", 4}, {"SYD", "SFO", 2}, {"MEL", "LAX", 2},
	{"AKL", "LAX", 2}, {"AKL", "SFO", 1}, {"BNE", "LAX", 1},
	{"SCL", "SYD", 1}, {"SCL", "AKL", 1},
	// --- South Atlantic (very sparse: the Fig 3 pathology) ---
	{"GRU", "LIS", 3}, {"GRU", "MAD", 2}, {"GRU", "CDG", 2},
	{"GRU", "LHR", 2}, {"GRU", "FRA", 2},
	{"EZE", "MAD", 2}, {"EZE", "CDG", 1}, {"EZE", "FCO", 1},
	{"GIG", "LIS", 2}, {"GIG", "CDG", 1},
	{"GRU", "JNB", 1}, {"GRU", "LOS", 1}, {"GRU", "ADD", 1},
	{"EZE", "JNB", 1}, {"REC", "LIS", 1}, {"REC", "DKR", 1},
	// --- North/Central Atlantic to South America (via Caribbean) ---
	{"MIA", "GRU", 4}, {"MIA", "EZE", 2}, {"MIA", "BOG", 6},
	{"MIA", "LIM", 3}, {"JFK", "GRU", 3}, {"JFK", "EZE", 2},
	{"JFK", "BOG", 3}, {"MEX", "MAD", 2}, {"BOG", "MAD", 2},
	{"LIM", "MAD", 2},
	// --- Europe ↔ Africa ---
	{"LHR", "JNB", 3}, {"CDG", "JNB", 2}, {"FRA", "JNB", 2},
	{"LHR", "CPT", 2}, {"AMS", "CPT", 1},
	{"LHR", "LOS", 2}, {"CDG", "LOS", 1}, {"AMS", "ACC", 1},
	{"CDG", "DKR", 2}, {"LIS", "ACC", 1},
	{"IST", "JNB", 1}, {"CDG", "NBO", 2}, {"AMS", "NBO", 1},
	{"LHR", "CAI", 3}, {"CDG", "CAI", 2}, {"FRA", "ADD", 1},
	// --- Europe ↔ Asia / Gulf ---
	{"LHR", "DXB", 8}, {"CDG", "DXB", 5}, {"FRA", "DXB", 5},
	{"AMS", "DXB", 3}, {"LHR", "DOH", 6}, {"CDG", "DOH", 4},
	{"LHR", "DEL", 4}, {"LHR", "BOM", 3}, {"FRA", "DEL", 3},
	{"CDG", "DEL", 2}, {"LHR", "SIN", 4}, {"CDG", "SIN", 3},
	{"FRA", "SIN", 3}, {"AMS", "SIN", 2}, {"LHR", "HKG", 5},
	{"CDG", "HKG", 3}, {"FRA", "HKG", 3}, {"LHR", "PEK", 3},
	{"FRA", "PEK", 3}, {"LHR", "PVG", 3}, {"FRA", "PVG", 3},
	{"LHR", "HND", 3}, {"CDG", "HND", 3}, {"FRA", "HND", 2},
	{"DME", "PEK", 2}, {"IST", "SIN", 2}, {"IST", "HKG", 2},
	// --- Gulf / India ↔ Asia-Pacific (Indian Ocean) ---
	{"DXB", "SIN", 6}, {"DXB", "HKG", 4}, {"DXB", "BKK", 5},
	{"DXB", "SYD", 3}, {"DXB", "PER", 2}, {"DXB", "MEL", 2},
	{"DOH", "SIN", 4}, {"DOH", "BKK", 3}, {"DOH", "SYD", 2},
	{"DOH", "PER", 1}, {"BOM", "SIN", 4}, {"DEL", "SIN", 4},
	{"DEL", "HKG", 3}, {"BOM", "HKG", 2},
	// --- Africa ↔ Asia/Oceania ---
	{"JNB", "DXB", 3}, {"JNB", "DOH", 2}, {"JNB", "SIN", 1},
	{"JNB", "PER", 1}, {"JNB", "SYD", 1}, {"NBO", "DXB", 2},
	{"NBO", "BOM", 1}, {"ADD", "DXB", 2}, {"ADD", "DEL", 1},
	// --- Intra-Asia over-water & Oceania ---
	{"SIN", "SYD", 4}, {"SIN", "MEL", 3}, {"SIN", "PER", 3},
	{"SIN", "HKG", 8}, {"SIN", "HND", 4}, {"SIN", "ICN", 3},
	{"KUL", "SYD", 2}, {"BKK", "SYD", 2}, {"HKG", "SYD", 4},
	{"HKG", "MEL", 2}, {"HKG", "HND", 8}, {"HKG", "ICN", 6},
	{"PVG", "HND", 8}, {"PEK", "HND", 5}, {"ICN", "HND", 8},
	{"HND", "SYD", 3}, {"HND", "BNE", 1}, {"ICN", "SYD", 2},
	{"PVG", "SYD", 2}, {"AKL", "SYD", 6}, {"AKL", "MEL", 3},
	{"AKL", "BNE", 2}, {"AKL", "SIN", 2}, {"AKL", "HKG", 1},
	{"BNE", "SIN", 2}, {"BNE", "HKG", 1},
}
