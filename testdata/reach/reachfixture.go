// Package reachfixture is a facade over internal/shape.
package reachfixture

import "reachfixture/internal/shape"

// Area is live: the example names it.
var Area = shape.Area

// DeadArea aliases the same live function, and nothing names it.
var DeadArea = shape.Area
