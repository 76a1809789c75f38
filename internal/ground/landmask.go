// Package ground models the terrestrial side of the network: the city
// dataset (traffic sources/sinks), transit relay terminals on a
// latitude-longitude grid, a coarse land/water mask, and ground-terminal
// visibility rules including the GSO arc-avoidance constraint.
package ground

import (
	"math"
	"sort"
	"sync"

	"leosim/internal/geo"
)

// The land mask substitutes for the global-land-mask dataset the paper uses
// [27]. It is a set of coarse continent polygons rasterized onto a 0.25°
// grid. Only two decisions depend on it — whether an aircraft is over water
// and whether a relay terminal location is on land — and both tolerate
// coarse coastlines at the 0.5° relay granularity the paper works at.

// polygon is a closed ring of (lon, lat) vertices in degrees.
type polygon [][2]float64

// continents are deliberately coarse outlines. Inland seas (Black Sea,
// Caspian) are treated as land, which only affects relay placement there and
// not any ocean-crossing logic.
var continents = []polygon{
	{ // north-america
		{-168, 65}, {-166, 60}, {-158, 58}, {-152, 60}, {-140, 60},
		{-130, 55}, {-125, 48}, {-124, 40}, {-117, 33}, {-110, 24},
		{-105, 20}, {-95, 15}, {-91, 13.5}, {-87, 13}, {-85, 10},
		{-80, 8}, {-77, 8},
		{-80, 10}, {-83, 11.5}, {-84, 15}, {-88, 16}, {-90, 21}, {-97, 26},
		{-94, 29}, {-89, 29}, {-83, 28}, {-81, 25}, {-80, 27},
		{-76, 35}, {-74, 40}, {-70, 42}, {-66, 44}, {-60, 46},
		{-56, 50}, {-58, 54}, {-62, 58}, {-68, 60}, {-75, 62},
		{-85, 66}, {-95, 68}, {-110, 68}, {-125, 70}, {-140, 70},
		{-155, 71}, {-162, 68},
	},
	{ // south-america
		{-77, 7}, {-75.6, 10.5}, {-72, 12}, {-64, 11}, {-60, 9},
		{-52, 5}, {-50, 0}, {-44, -3}, {-38, -3.3}, {-35, -5.5},
		{-37, -12},
		{-40, -20}, {-48, -26}, {-53, -34}, {-57, -38}, {-62, -40},
		{-65, -45}, {-68, -50}, {-69, -54}, {-72, -52}, {-73, -46},
		{-73, -38}, {-71, -30}, {-70, -20}, {-76, -14}, {-81, -6},
		{-80, 0}, {-77, 4},
	},
	{ // africa
		{-17, 15}, {-16, 20}, {-13, 26}, {-10, 31}, {-9, 34},
		{-5, 36}, {0, 36}, {10, 37}, {20, 32}, {30, 31.3}, {32.4, 31.3}, {34, 28},
		{37, 22}, {43, 12}, {48, 8}, {51, 11}, {46, 2},
		{41, -2}, {40, -10}, {36, -18}, {33, -26}, {28, -33},
		{20, -35}, {18, -32}, {15, -27}, {12, -18}, {9, -7},
		{9, 0}, {6, 4}, {-5, 5}, {-8, 5}, {-13, 8},
	},
	{ // eurasia
		{-9, 37}, {-9, 43}, {-2, 44}, {-5, 48}, {-2, 50},
		{3, 51}, {8, 54}, {7, 58}, {5, 62}, {10, 64},
		{14, 68}, {20, 70}, {30, 71}, {40, 68},
		{50, 69}, {60, 69}, {75, 72}, {90, 75}, {105, 77},
		{115, 74}, {130, 72}, {140, 72}, {150, 70}, {160, 70},
		{170, 67}, {179, 65}, {178, 62}, {170, 60}, {160, 53},
		{150, 59}, {142, 54}, {135, 44}, {130, 42}, {129, 35},
		{126, 35}, {124, 39}, {121, 39}, {118, 38}, {121, 37.5},
		{122.5, 37}, {122, 36}, {119, 35}, {122, 31},
		{121, 28}, {115, 22}, {108, 21}, {108.5, 16.2}, {106, 10}, {105, 4},
		{104, 1}, {101, 2}, {100, 6}, {98, 8}, {98, 14},
		{94, 16}, {90, 22},
		{87, 21}, {85, 19}, {80, 15}, {80, 8}, {77, 8},
		{73, 16}, {70, 21}, {66, 25}, {61, 25}, {57, 26},
		{52, 28}, {48, 30}, {48, 29}, {48, 26.5}, {51.2, 26},
		{51.6, 24.5}, {54, 24}, {56.5, 26.5}, {58.5, 25.5},
		{60, 22}, {59, 20}, {55, 17}, {52, 16}, {45, 12}, {43, 13},
		{39, 20}, {35, 28}, {36, 36}, {30, 36}, {27, 36},
		{26, 40}, {22, 37}, {20, 40}, {19, 42}, {13, 46},
		{8, 44}, {4, 43}, {0, 40}, {-2, 37}, {-5, 36},
	},
	{ // italy
		{7.5, 44.5}, {13.5, 46}, {14, 42}, {16, 41.5}, {18, 40},
		{17, 39.5}, {16, 38}, {15.5, 40}, {12, 41.5}, {10, 43},
	},
	{ // australia
		{114, -22}, {114, -34}, {118, -35}, {124, -33}, {130, -32},
		{136, -35}, {140, -38}, {147, -39}, {150, -37}, {153, -30},
		{153, -25}, {149, -20}, {146, -18}, {142, -11}, {138, -16},
		{136, -12}, {131, -12}, {126, -14}, {122, -17},
	},
	{ // greenland
		{-45, 60}, {-40, 64}, {-22, 70}, {-20, 76}, {-30, 82},
		{-55, 82}, {-60, 76}, {-55, 70}, {-52, 65},
	},
	{ // britain-ireland
		{-10, 51}, {-5, 50}, {1, 51}, {0, 53}, {-2, 56},
		{-4, 59}, {-8, 58}, {-10, 54},
	},
	{ // japan
		{130, 31}, {134, 34}, {140, 35}, {142, 41}, {145, 44},
		{141, 45}, {139, 41}, {135, 35}, {130, 33},
	},
	{ // sumatra
		{95, 5}, {100, 2}, {104, -3}, {106, -6}, {102, -5}, {97, 2},
	},
	{ // java
		{105, -6}, {114, -7}, {114, -8}, {105, -8},
	},
	{ // borneo
		{109, 1}, {114, 5}, {117, 6}, {119, 1}, {116, -3}, {110, -2},
	},
	{ // sulawesi
		{119, 1}, {121, 1}, {123, -1}, {122, -4}, {120, -5}, {119, -3},
	},
	{ // new-guinea
		{131, -1}, {138, -2}, {145, -5}, {150, -9}, {147, -10},
		{140, -8}, {133, -4},
	},
	{ // madagascar
		{44, -16}, {50, -16}, {47, -25}, {44, -22},
	},
	{ // new-zealand
		{173, -35}, {176, -38}, {178, -38}, {175, -41}, {170, -44},
		{167, -46}, {170, -46}, {172, -41},
	},
	{ // philippines
		{120, 18}, {122, 18}, {124, 12}, {126, 7}, {122, 6}, {120, 14},
	},
	{ // sri-lanka
		{80, 9}, {82, 8}, {81, 6}, {80, 7},
	},
	{ // cuba-hispaniola
		{-85, 22}, {-80, 23}, {-74, 20}, {-69, 19}, {-71, 18},
		{-77, 20}, {-84, 21},
	},
	{ // iceland
		{-24, 65}, {-18, 66}, {-14, 65}, {-16, 64}, {-22, 63},
	},
	{ // tasmania
		{145, -41}, {148, -41}, {148, -43}, {146, -43},
	},
	{ // sicily
		{12.5, 38.2}, {15.6, 38.3}, {15.1, 36.7}, {12.4, 37.6},
	},
	{ // taiwan-hainan
		{120, 25}, {122, 25}, {121, 22}, {120, 23},
	},
}

// Raster resolution: 0.25° cells.
const (
	maskRes  = 0.25
	maskCols = int(360 / maskRes)
	maskRows = int(180 / maskRes)
)

var (
	maskOnce sync.Once
	mask     []bool // row-major, row = lat index from -90, col = lon from -180
)

// buildMask rasterizes the polygons one raster row at a time: the even-odd
// ray-casting rule on the lon/lat plane (the coarse polygons never cross the
// antimeridian, so plain planar math suffices), evaluated per row instead of
// per cell. A cell centre is inside a polygon when an odd number of the
// polygon's edge crossings of that latitude lie strictly east of it, so with
// the crossings sorted one eastward walk over the columns decides every cell
// of the row.
func buildMask() {
	mask = make([]bool, maskCols*maskRows)
	var xs []float64
	for r := 0; r < maskRows; r++ {
		lat := -90 + (float64(r)+0.5)*maskRes
		row := mask[r*maskCols : (r+1)*maskCols]
		for _, poly := range continents {
			xs = xs[:0]
			n := len(poly)
			for i, j := 0, n-1; i < n; j, i = i, i+1 {
				xi, yi := poly[i][0], poly[i][1]
				xj, yj := poly[j][0], poly[j][1]
				if (yi > lat) != (yj > lat) {
					xs = append(xs, (xj-xi)*(lat-yi)/(yj-yi)+xi)
				}
			}
			if len(xs) == 0 {
				continue
			}
			sort.Float64s(xs)
			// Start a cell west of the first crossing: everything before it
			// has all (an even number of) crossings to its east.
			c := int((xs[0]+180)/maskRes) - 1
			if c < 0 {
				c = 0
			}
			for k := 0; c < maskCols && k < len(xs); c++ {
				lon := -180 + (float64(c)+0.5)*maskRes
				for k < len(xs) && !(lon < xs[k]) {
					k++
				}
				if (len(xs)-k)%2 == 1 {
					row[c] = true
				}
			}
		}
	}
}

// IsLand reports whether the given surface point is on land according to the
// coarse mask. Queries hit a lazily built 0.25° raster and are O(1).
func IsLand(lat, lon float64) bool {
	maskOnce.Do(buildMask)
	p := geo.LL(lat, lon).Normalize()
	r := int((p.Lat + 90) / maskRes)
	c := int((p.Lon + 180) / maskRes)
	if r < 0 {
		r = 0
	} else if r >= maskRows {
		r = maskRows - 1
	}
	if c < 0 {
		c = 0
	} else if c >= maskCols {
		c = maskCols - 1
	}
	return mask[r*maskCols+c]
}

// IsWater is the complement of IsLand.
func IsWater(lat, lon float64) bool { return !IsLand(lat, lon) }

// LandFraction returns the fraction of raster cells that are land, weighted
// by cell area (cos latitude). Earth's true land fraction is ≈0.29; the
// coarse mask should land in that neighborhood, which the tests assert.
func LandFraction() float64 {
	maskOnce.Do(buildMask)
	var land, total float64
	for r := 0; r < maskRows; r++ {
		lat := -90 + (float64(r)+0.5)*maskRes
		w := cosDeg(lat)
		for c := 0; c < maskCols; c++ {
			total += w
			if mask[r*maskCols+c] {
				land += w
			}
		}
	}
	return land / total
}

func cosDeg(d float64) float64 { return math.Cos(d * geo.Deg) }
