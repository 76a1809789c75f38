package check

import (
	"math"

	"leosim/internal/constellation"
	"leosim/internal/geo"
	"leosim/internal/graph"
)

// Geometry holds the physical ground truth a snapshot graph is checked
// against: the constellation that produced its satellite nodes (whose shells
// carry the elevation masks) and tolerances. Build one per experiment (not
// per snapshot); the closed-form ISL bounds it caches are time-invariant.
type Geometry struct {
	Const *constellation.Constellation

	// RadiusTolKm bounds how far a satellite may sit from its shell's
	// nominal orbital radius. The analytic J2-secular propagator keeps
	// circular orbits at exactly a = R+h (up to rounding); SGP4 adds
	// short-period oscillations of a few kilometers, so NewGeometry widens
	// the tolerance when any satellite uses it.
	RadiusTolKm float64
	// ISLSlackKm widens the closed-form ISL length bounds, absorbing the
	// same propagator deviation on both endpoints.
	ISLSlackKm float64
	// MinISLAltKm, when positive, requires every ISL to clear this altitude
	// (the paper's ~80 km lower-atmosphere floor). Leave zero for sparse
	// test shells whose intra-plane chords legitimately dip lower.
	MinISLAltKm float64

	// islBounds caches [min,max] chord length per (shell, Δplane, Δslot)
	// relation. +Grid uses a handful of distinct relations; motifs with
	// freer link choices (diagonal offsets, nearest-neighbour matchings,
	// demand-aware placement) fill in more keys but hit the same closed
	// form — the bounds depend only on the relation, never on the motif.
	islBounds map[islKey][2]float64
}

type islKey struct {
	shell         int
	dPlane, dSlot int
}

// Tolerances for quantities the builder derives deterministically from node
// positions: the checker recomputes them with the same float inputs, so only
// rounding noise needs absorbing.
const (
	elevTolDeg   = 1e-9
	rangeTolKm   = 1e-6
	delayTolMs   = 1e-9
	groundTolKm  = 0.5  // terrain model: terminals sit on the sphere
	aircraftCeil = 25.0 // km; aircraft relays cruise far below this
)

// NewGeometry derives the checking ground truth from a constellation.
func NewGeometry(c *constellation.Constellation) *Geometry {
	g := &Geometry{
		Const:       c,
		RadiusTolKm: 1e-3,
		ISLSlackKm:  1e-3,
		islBounds:   map[islKey][2]float64{},
	}
	if !c.Analytic() {
		// SGP4: its radius departs from the Kepler one by up to 7.4 km over
		// a day (constellation's TestWithSGP4MatchesKeplerCoarsely bounds it
		// at 10 km) and its along-track phase drifts; loosen both bounds
		// well past that.
		g.RadiusTolKm = 30
		g.ISLSlackKm = 100
	}
	return g
}

// CheckShape validates the structural invariants of a snapshot graph that
// need no physical ground truth: array shapes, the sat/city/relay/aircraft
// node layout, link endpoint sanity, kind/endpoint consistency, duplicate
// links, and finite positive link attributes. Usable on its own (the fuzz
// targets call it on arbitrary built graphs).
func CheckShape(r *Report, n *graph.Network) {
	nn := n.N()
	if len(n.Pos) != nn || len(n.Name) != nn {
		r.Violatef(ClassGraphShape, "node arrays disagree: kind=%d pos=%d name=%d",
			nn, len(n.Pos), len(n.Name))
		return // indexing below would be unsafe
	}
	if n.NumSat+n.NumCity+n.NumRelay+n.NumAircraft != nn {
		r.Violatef(ClassGraphShape, "node counts %d+%d+%d+%d != %d nodes",
			n.NumSat, n.NumCity, n.NumRelay, n.NumAircraft, nn)
	}
	wantKind := func(i int) graph.NodeKind {
		switch {
		case i < n.NumSat:
			return graph.NodeSatellite
		case i < n.NumSat+n.NumCity:
			return graph.NodeCity
		case i < n.NumSat+n.NumCity+n.NumRelay:
			return graph.NodeRelay
		default:
			return graph.NodeAircraft
		}
	}
	for i := 0; i < nn; i++ {
		if k := n.Kind[i]; k != wantKind(i) {
			r.Violatef(ClassGraphShape, "node %d (%s) is %v, layout says %v",
				i, n.Name[i], k, wantKind(i))
		}
	}
	r.Checked("nodes", nn)

	type linkID struct {
		a, b int32
		kind graph.LinkKind
	}
	seen := make(map[linkID]bool, len(n.Links))
	for li, l := range n.Links {
		if l.A < 0 || int(l.A) >= nn || l.B < 0 || int(l.B) >= nn {
			r.Violatef(ClassGraphShape, "link %d endpoints (%d,%d) outside [0,%d)",
				li, l.A, l.B, nn)
			continue
		}
		if l.A == l.B {
			r.Violatef(ClassGraphShape, "link %d is a self-loop on node %d", li, l.A)
			continue
		}
		a, b := l.A, l.B
		if a > b {
			a, b = b, a
		}
		id := linkID{a: a, b: b, kind: l.Kind}
		if seen[id] {
			r.Violatef(ClassGraphShape, "duplicate %v link %d–%d", l.Kind, a, b)
		}
		seen[id] = true
		aSat, bSat := n.Kind[l.A] == graph.NodeSatellite, n.Kind[l.B] == graph.NodeSatellite
		switch l.Kind {
		case graph.LinkGSL:
			if aSat == bSat {
				r.Violatef(ClassGraphShape, "GSL %d joins %v and %v (want one satellite, one terminal)",
					li, n.Kind[l.A], n.Kind[l.B])
			}
		case graph.LinkISL:
			if !aSat || !bSat {
				r.Violatef(ClassGraphShape, "ISL %d joins %v and %v (want two satellites)",
					li, n.Kind[l.A], n.Kind[l.B])
			}
		case graph.LinkFiber:
			if aSat || bSat {
				r.Violatef(ClassGraphShape, "fiber link %d touches a satellite", li)
			}
		default:
			r.Violatef(ClassGraphShape, "link %d has unknown kind %d", li, l.Kind)
		}
		if math.IsNaN(l.CapGbps) || math.IsInf(l.CapGbps, 0) || l.CapGbps < 0 {
			r.Violatef(ClassGraphShape, "link %d has non-physical capacity %v", li, l.CapGbps)
		}
		if math.IsNaN(l.OneWayMs) || math.IsInf(l.OneWayMs, 0) || l.OneWayMs <= 0 {
			r.Violatef(ClassLinkDelay, "link %d has non-physical delay %v ms", li, l.OneWayMs)
		}
	}
	r.Checked("links", len(n.Links))
}

// CheckNetwork runs every per-snapshot physics check against the graph:
// structure (CheckShape), node geometry, GSL elevation/slant-range
// feasibility, per-relation ISL length bounds, and link propagation delays.
func (g *Geometry) CheckNetwork(r *Report, n *graph.Network) {
	CheckShape(r, n)
	if n.N() != len(n.Pos) || len(n.Name) != len(n.Pos) {
		return // shape too broken to check physics
	}
	if n.NumSat != g.Const.Size() {
		r.Violatef(ClassGraphShape, "graph has %d satellite nodes, constellation has %d",
			n.NumSat, g.Const.Size())
		return
	}
	g.checkNodes(r, n)
	g.checkLinks(r, n)
}

func (g *Geometry) checkNodes(r *Report, n *graph.Network) {
	for i := 0; i < n.N(); i++ {
		p := n.Pos[i]
		if !finiteVec(p) {
			r.Violatef(ClassNodeGeometry, "node %d (%s) has non-finite position %v",
				i, n.Name[i], p)
			continue
		}
		rad := p.Norm()
		if i < n.NumSat {
			want := geo.EarthRadius + g.Const.ShellOf(i).AltitudeKm
			if math.Abs(rad-want) > g.RadiusTolKm {
				r.Violatef(ClassNodeGeometry,
					"satellite %d (%s) at radius %.3f km, shell orbit is %.3f km (tol %.3g)",
					i, n.Name[i], rad, want, g.RadiusTolKm)
			}
			continue
		}
		lo, hi := geo.EarthRadius-groundTolKm, geo.EarthRadius+groundTolKm
		if n.Kind[i] == graph.NodeAircraft {
			hi = geo.EarthRadius + aircraftCeil
		}
		if rad < lo || rad > hi {
			r.Violatef(ClassNodeGeometry,
				"%v node %d (%s) at radius %.3f km outside [%.1f,%.1f]",
				n.Kind[i], i, n.Name[i], rad, lo, hi)
		}
	}
}

func (g *Geometry) checkLinks(r *Report, n *graph.Network) {
	gsl, isl := 0, 0
	for li, l := range n.Links {
		if l.A < 0 || int(l.A) >= n.N() || l.B < 0 || int(l.B) >= n.N() || l.A == l.B {
			continue // already reported by CheckShape
		}
		pa, pb := n.Pos[l.A], n.Pos[l.B]
		if !finiteVec(pa) || !finiteVec(pb) {
			continue
		}
		dist := pa.Distance(pb)

		// Propagation delay must match the positions it was derived from.
		speed := geo.LightSpeed
		effDist := dist
		if l.Kind == graph.LinkFiber {
			speed = geo.FiberSpeed
			effDist = dist * 1.5 // terrestrial path stretch, as built
		}
		wantMs := effDist / speed * 1000
		if math.Abs(l.OneWayMs-wantMs) > delayTolMs+1e-12*wantMs {
			r.Violatef(ClassLinkDelay,
				"link %d (%v %d–%d) delay %.9f ms, positions imply %.9f ms",
				li, l.Kind, l.A, l.B, l.OneWayMs, wantMs)
		}

		switch l.Kind {
		case graph.LinkGSL:
			sat, term := l.A, l.B
			if n.IsGroundSide(sat) {
				sat, term = term, sat
			}
			if n.IsGroundSide(sat) || !n.IsGroundSide(term) {
				continue // malformed endpoints, reported by CheckShape
			}
			gsl++
			minElev := g.Const.ShellOf(int(sat)).MinElevationDeg
			if e := geo.Elevation(n.Pos[term], n.Pos[sat]); e < minElev-elevTolDeg {
				r.Violatef(ClassGSLElevation,
					"GSL %d: satellite %s is %.4f° above %s's horizon, mask is %.1f°",
					li, n.Name[sat], e, n.Name[term], minElev)
			}
			maxRange := geo.MaxSlantRange(n.Pos[term].Norm(), n.Pos[sat].Norm(), minElev)
			if dist > maxRange+rangeTolKm {
				r.Violatef(ClassGSLRange,
					"GSL %d: %s–%s is %.3f km, elevation mask %.1f° admits at most %.3f km",
					li, n.Name[term], n.Name[sat], dist, minElev, maxRange)
			}
		case graph.LinkISL:
			if n.IsGroundSide(l.A) || n.IsGroundSide(l.B) {
				continue
			}
			isl++
			g.checkISL(r, n, li, l, dist)
		}
	}
	r.Checked("gsl-links", gsl)
	r.Checked("isl-links", isl)
}

func (g *Geometry) checkISL(r *Report, n *graph.Network, li int, l graph.Link, dist float64) {
	sa, sb := g.Const.Sats[l.A], g.Const.Sats[l.B]
	if sa.ShellIndex != sb.ShellIndex {
		r.Violatef(ClassISLGeometry, "ISL %d crosses shells %d and %d",
			li, sa.ShellIndex, sb.ShellIndex)
		return
	}
	lo, hi := g.islBoundsFor(sa.ShellIndex, sb.Plane-sa.Plane, sb.Slot-sa.Slot)
	if dist < lo-g.ISLSlackKm || dist > hi+g.ISLSlackKm {
		r.Violatef(ClassISLGeometry,
			"ISL %d (%s–%s, Δplane=%d Δslot=%d) is %.3f km, geometry bounds it to [%.3f,%.3f]",
			li, n.Name[l.A], n.Name[l.B], sb.Plane-sa.Plane, sb.Slot-sa.Slot, dist, lo, hi)
	}
	if g.MinISLAltKm > 0 {
		if alt := geo.SegmentMinAltitudeKm(n.Pos[l.A], n.Pos[l.B]); alt < g.MinISLAltKm {
			r.Violatef(ClassISLGeometry,
				"ISL %d (%s–%s) dips to %.1f km altitude, floor is %.1f km",
				li, n.Name[l.A], n.Name[l.B], alt, g.MinISLAltKm)
		}
	}
}

// islBoundsFor returns the exact [min,max] length a link between two
// satellites of the shell with the given plane/slot offsets can take, at any
// time (Shell.ChordBoundsKm), cached per relation.
func (g *Geometry) islBoundsFor(shell, dPlane, dSlot int) (lo, hi float64) {
	key := islKey{shell: shell, dPlane: dPlane, dSlot: dSlot}
	if b, ok := g.islBounds[key]; ok {
		return b[0], b[1]
	}
	lo, hi = g.Const.Shells[shell].ChordBoundsKm(dPlane, dSlot)
	g.islBounds[key] = [2]float64{lo, hi}
	return lo, hi
}

func finiteVec(v geo.Vec3) bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}
