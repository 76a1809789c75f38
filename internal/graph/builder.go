package graph

import (
	"fmt"
	"math"
	"sort"
	"time"

	"leosim/internal/aircraft"
	"leosim/internal/constellation"
	"leosim/internal/geo"
	"leosim/internal/ground"
	"leosim/internal/safe"
	"leosim/internal/telemetry"
)

// Link capacities per direction, the paper's §5 values: GSLCapGbps for each
// ground-satellite link, ISLCapGbps for each ISL (applied where Hybrid
// appends the lasers). A fault mask scales the GSL one (Outages.GSLCapFactor).
const (
	GSLCapGbps = 20.0
	ISLCapGbps = 100.0
)

// BuildOptions configure the per-snapshot ground-satellite scan. Mode and
// fault mask are not options but derivations (Builder.Hybrid,
// fault.Outages.Masked); the minimum elevation angle is each shell's own.
type BuildOptions struct {
	// GSO, when non-zero, applies the GSO arc-avoidance constraint to
	// city/relay terminals (§7).
	GSO ground.GSOPolicy
	// MaxGSLsPerSatellite, when positive, caps how many terminals a
	// satellite can serve simultaneously (closest first). §2 assumes
	// "careful frequency management alleviates interference" — i.e. no
	// cap; this knob quantifies what happens when the number of beams or
	// channels is finite. Dense relay deployments (BP) suffer first.
	MaxGSLsPerSatellite int
}

// Builder constructs per-snapshot Networks from a constellation, a ground
// segment, and optionally an aircraft fleet.
type Builder struct {
	Const *constellation.Constellation
	Seg   *ground.Segment
	Fleet *aircraft.Fleet // nil = no aircraft relays
	Opts  BuildOptions

	// gso holds one arc-avoidance checker per segment terminal, nil without a
	// GSO policy. NewBuilder fills it; the segment never changes afterwards.
	gso []*ground.GSOChecker
}

// NewBuilder wires a builder. Fleet may be nil.
func NewBuilder(c *constellation.Constellation, seg *ground.Segment,
	fleet *aircraft.Fleet, opts BuildOptions) (*Builder, error) {
	if c == nil || seg == nil {
		return nil, fmt.Errorf("graph: constellation and segment are required")
	}
	b := &Builder{Const: c, Seg: seg, Fleet: fleet, Opts: opts}
	if opts.GSO.SeparationDeg > 0 {
		b.gso = make([]*ground.GSOChecker, len(seg.Terminals))
		for i, t := range seg.Terminals {
			b.gso[i] = ground.NewGSOChecker(t.Pos, opts.GSO)
		}
	}
	return b, nil
}

// satCellDeg is the spatial-bucketing cell size of the satellite index.
const satCellDeg = 4

// visibility resolves the per-shell minimum elevation angles and the
// conservative candidate-scan radius: the Earth-central angle of the widest
// shell's coverage cone, in degrees, plus slack for terminal altitude
// (aircraft).
func (b *Builder) visibility() (minElev []float64, maxRadiusDeg float64) {
	minElev = make([]float64, len(b.Const.Shells))
	for i, sh := range b.Const.Shells {
		minElev[i] = sh.MinElevationDeg
		rd := geo.CoverageRadius(sh.AltitudeKm, sh.MinElevationDeg)/geo.EarthRadius*geo.Rad + 0.5
		if rd > maxRadiusDeg {
			maxRadiusDeg = rd
		}
	}
	return minElev, maxRadiusDeg
}

// satIndex spatially buckets satellites by sub-satellite point for fast
// visibility queries.
type satIndex struct {
	cellDeg float64
	cols    int
	rows    int
	cells   map[int][]int32
	subLat  []float64
	subLon  []float64
}

func newSatIndex(pos []geo.Vec3, cellDeg float64) *satIndex {
	idx := &satIndex{
		cellDeg: cellDeg,
		cols:    int(math.Ceil(360 / cellDeg)),
		rows:    int(math.Ceil(180 / cellDeg)),
		cells:   make(map[int][]int32),
		subLat:  make([]float64, len(pos)),
		subLon:  make([]float64, len(pos)),
	}
	for i, p := range pos {
		ll := geo.FromECEF(p)
		idx.subLat[i] = ll.Lat
		idx.subLon[i] = ll.Lon
		c := idx.cellOf(ll.Lat, ll.Lon)
		idx.cells[c] = append(idx.cells[c], int32(i))
	}
	return idx
}

func (x *satIndex) cellOf(lat, lon float64) int {
	r := int((lat + 90) / x.cellDeg)
	if r < 0 {
		r = 0
	} else if r >= x.rows {
		r = x.rows - 1
	}
	c := int((lon + 180) / x.cellDeg)
	c = ((c % x.cols) + x.cols) % x.cols
	return r*x.cols + c
}

// candidates returns satellites whose sub-satellite point lies within
// radiusDeg (central angle) of (lat, lon), conservatively (may include a few
// extras; never misses one).
func (x *satIndex) candidates(lat, lon, radiusDeg float64, out []int32) []int32 {
	out = out[:0]
	rCells := int(radiusDeg/x.cellDeg) + 1
	r0 := int((lat + 90) / x.cellDeg)
	for dr := -rCells; dr <= rCells; dr++ {
		r := r0 + dr
		if r < 0 || r >= x.rows {
			continue
		}
		cellLat := -90 + (float64(r)+0.5)*x.cellDeg
		cosLat := math.Cos(cellLat * geo.Deg)
		var cCells int
		if cosLat*float64(x.cols) <= 2*radiusDeg/x.cellDeg*2 || cosLat < 0.05 {
			cCells = x.cols / 2 // near poles scan the whole ring
		} else {
			cCells = int(radiusDeg/(x.cellDeg*cosLat)) + 1
		}
		c0 := int((lon + 180) / x.cellDeg)
		for dc := -cCells; dc <= cCells; dc++ {
			c := ((c0+dc)%x.cols + x.cols) % x.cols
			out = append(out, x.cells[r*x.cols+c]...)
		}
	}
	return out
}

// At runs the one propagation + visibility scan of instant t and returns the
// bent-pipe network, the base every other network of t derives from. Node
// layout: satellites [0,S), cities, relays, then over-water aircraft.
func (b *Builder) At(t time.Time) *Network {
	sp := telemetry.StartStageSpan(telemetry.StageGraphBuild)
	defer sp.End()
	satPos := b.Const.PositionsECEF(t)
	var air []aircraft.Aircraft
	if b.Fleet != nil {
		air = b.Fleet.OverWaterAt(t)
	}
	// Node and (below) link slices are sized from counts known before the
	// first append: a built network that lands in a cache holds no growth
	// slack.
	nn := len(satPos) + len(b.Seg.Terminals) + len(air)
	n := &Network{
		Kind: make([]NodeKind, 0, nn),
		Pos:  make([]geo.Vec3, 0, nn),
		Name: make([]string, 0, nn),
	}
	n.NumSat = len(satPos)
	for i, p := range satPos {
		s := b.Const.Sats[i]
		n.AddNode(NodeSatellite, p, fmt.Sprintf("sat-%d/%d.%d", s.ShellIndex, s.Plane, s.Slot))
	}
	for _, term := range b.Seg.Terminals {
		kind := NodeCity
		if term.Kind == ground.KindRelay {
			kind = NodeRelay
		}
		n.AddNode(kind, term.ECEF, term.Name)
	}
	n.NumCity = b.Seg.NumCity
	n.NumRelay = b.Seg.NumRelay
	for _, a := range air {
		n.AddNode(NodeAircraft, a.Pos.ToECEF(), a.Name)
	}
	n.NumAircraft = len(air)

	minElev, maxRadiusDeg := b.visibility()

	idx := newSatIndex(satPos, satCellDeg)
	gso := b.gso

	// GSL edges for every terminal node (cities, relays, aircraft).
	type termJob struct {
		node int32
		pos  geo.Vec3
		ll   geo.LatLon
		gso  *ground.GSOChecker
	}
	jobs := make([]termJob, 0, len(b.Seg.Terminals)+len(air))
	for i, term := range b.Seg.Terminals {
		var ck *ground.GSOChecker
		if gso != nil {
			ck = gso[i]
		}
		jobs = append(jobs, termJob{
			node: int32(n.NumSat + i), pos: term.ECEF, ll: term.Pos, gso: ck,
		})
	}
	for i, a := range air {
		jobs = append(jobs, termJob{
			node: int32(n.NumSat + len(b.Seg.Terminals) + i),
			pos:  a.Pos.ToECEF(), ll: a.Pos,
		})
	}

	// Parallel visibility computation; link insertion is serialized after.
	type linkPair struct{ term, sat int32 }
	results := make([][]linkPair, len(jobs))
	safe.Chunks(len(jobs), func(lo, hi int) {
		var cand []int32
		for j := lo; j < hi; j++ {
			job := jobs[j]
			cand = idx.candidates(job.ll.Lat, job.ll.Lon, maxRadiusDeg, cand)
			var mine []linkPair
			for _, si := range cand {
				e := minElev[b.Const.Sats[si].ShellIndex]
				if geo.Elevation(job.pos, satPos[si]) < e {
					continue
				}
				if !job.gso.Allowed(satPos[si]) {
					continue
				}
				mine = append(mine, linkPair{term: job.node, sat: si})
			}
			// Canonical per-terminal order: ascending satellite index, one
			// link per pair (the near-polar full-ring scan can report a
			// candidate twice).
			sort.Slice(mine, func(a, b int) bool { return mine[a].sat < mine[b].sat })
			uniq := mine[:0]
			for k, lp := range mine {
				if k > 0 && lp.sat == mine[k-1].sat {
					continue
				}
				uniq = append(uniq, lp)
			}
			results[j] = uniq
		}
	})
	if lim := b.Opts.MaxGSLsPerSatellite; lim > 0 {
		// Keep only each satellite's lim closest terminals.
		type cand struct {
			term   int32
			distKm float64
		}
		perSat := make(map[int32][]cand)
		for _, mine := range results {
			for _, lp := range mine {
				perSat[lp.sat] = append(perSat[lp.sat], cand{
					term:   lp.term,
					distKm: n.Pos[lp.term].Distance(n.Pos[lp.sat]),
				})
			}
		}
		gsls := 0
		for _, cands := range perSat {
			gsls += min(len(cands), lim)
		}
		n.Links = make([]Link, 0, gsls)
		for sat := int32(0); sat < int32(n.NumSat); sat++ {
			cands, ok := perSat[sat]
			if !ok {
				continue
			}
			sort.Slice(cands, func(i, j int) bool {
				if cands[i].distKm != cands[j].distKm {
					return cands[i].distKm < cands[j].distKm
				}
				return cands[i].term < cands[j].term
			})
			if len(cands) > lim {
				cands = cands[:lim]
			}
			// Deterministic link order: by terminal index.
			sort.Slice(cands, func(i, j int) bool { return cands[i].term < cands[j].term })
			for _, c := range cands {
				n.AddLink(c.term, sat, LinkGSL, GSLCapGbps)
			}
		}
	} else {
		gsls := 0
		for _, mine := range results {
			gsls += len(mine)
		}
		n.Links = make([]Link, 0, gsls)
		for _, mine := range results {
			for _, lp := range mine {
				n.AddLink(lp.term, lp.sat, LinkGSL, GSLCapGbps)
			}
		}
	}
	// Freeze the adjacency into CSR now so concurrent experiment workers start
	// routing on a published layout instead of racing to build it lazily.
	n.ensureCSR()
	return n
}

// Hybrid derives the hybrid network for time t from base, which must be this
// builder's At(t): the same nodes and GSLs in the same order, then the ISLs
// the constellation places for t (§2: "BP plus laser ISLs"). It shares base's
// node arrays, owns its link list and CSR, and does not write base.
func (b *Builder) Hybrid(base *Network, t time.Time) *Network {
	return base.WithISLs(b.Const.ISLsAt(t))
}
