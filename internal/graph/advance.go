package graph

import (
	"math"
	"sort"
	"time"

	"leosim/internal/aircraft"
	"leosim/internal/constellation"
	"leosim/internal/geo"
	"leosim/internal/telemetry"
)

// MaxAdvanceStep is the largest forward time step Advance applies
// incrementally. Beyond it (and for any backwards step) the advancer falls
// back to a full rebuild: with most of the constellation having crossed
// index cells and most recheck deadlines expired, the delta machinery would
// redo a full visibility scan anyway, minus the clean slate.
const MaxAdvanceStep = 5 * time.Minute

// altSlackKm absorbs propagation-model altitude deviation from the nominal
// shell altitude in the elevation-rate bound. Kepler orbits are exactly
// circular; under SGP4 (its short-period terms, the e = 1e-4 the generated
// TLEs carry) a satellite's radius departs from the Kepler one by at most
// 7.4 km over a day on either paper shell, a deviation constellation's
// TestWithSGP4MatchesKeplerCoarsely bounds at 10 km. The slack only
// loosens the bound, never the correctness. No served route drives
// an Advancer: the server's primer builds every instant through
// BuildNetworkAt, so only the experiments' time walks (core's walker) step one.
const altSlackKm = 25

// rateSafety further loosens the elevation-rate bound. Every other factor in
// the bound is already strictly conservative on its own — worst-case relative
// speed (fastest shell plus Earth rotation at padded radius) over a
// range-shrink lower bound, with the sine-space margin never exceeding the
// angular one — so this multiplier only has to absorb propagation-model drift
// beyond the circular Kepler + secular-J2 model (whose rate deviations the
// altSlackKm padding already dominates). 10% is ample:
// TestAdvanceDifferentialDay and TestAdvanceDifferentialSeconds run their
// day in one-minute steps and 240 one-second steps under both the Kepler
// model and SGP4, without a fallback and identical to fresh rebuilds at
// every compare.
const rateSafety = 1.1

// GSLChange names one ground-satellite link that appeared or disappeared
// during an Advance step.
type GSLChange struct {
	// Term is the terminal node index, Sat the satellite node index.
	Term, Sat int32
}

// Delta describes one Advance step. The slices are owned by the Advancer
// and reused; a Delta is valid until the next Advance call.
type Delta struct {
	// Epoch is the network's mutation epoch after this step.
	Epoch uint64
	// From and To bound the step.
	From, To time.Time
	// Added and Removed list the GSL edges that appeared/disappeared.
	// Empty on full-rebuild steps, where no per-edge diff is computed.
	Added, Removed []GSLChange
	// Reweighted counts links whose propagation delay was recomputed
	// (every link, each incremental step).
	Reweighted int
	// CellCrossings counts satellites whose footprint crossed an index
	// cell boundary; Rechecked counts candidate pairs whose elevation was
	// re-evaluated (the rest slept on their recheck deadlines).
	CellCrossings, Rechecked int
	// FullRebuild marks a step that rebuilt the snapshot from scratch
	// instead of advancing it; Reason says why ("large-jump",
	// "backwards-step", "aircraft-set-change", "gso-policy", "beam-cap").
	FullRebuild bool
	Reason      string
}

// AdvanceStats accumulate over an Advancer's lifetime.
type AdvanceStats struct {
	// Steps counts Advance calls; FullRebuilds how many fell back.
	Steps, FullRebuilds int
	// Added and Removed total the GSL edge changes across incremental
	// steps.
	Added, Removed int
	// CellCrossings and Rechecked total the per-step counters.
	CellCrossings, Rechecked int64
}

// advCand is one (terminal, satellite) candidate pair: the satellite's
// footprint cell is inside the terminal's scan region, so the pair may be
// linked. linked caches the last elevation verdict. The pair's recheck
// deadline — the UnixNano instant before which that verdict provably cannot
// flip, derived from the worst-case elevation rate — lives in the parallel
// advTerm.deadline slice: the per-step scan reads only deadlines for pairs
// still sleeping, so keeping them contiguous halves the scan's memory
// traffic.
type advCand struct {
	sat    int32
	linked bool
}

// advTerm is the advancer's per-static-terminal state.
type advTerm struct {
	node     int32
	cands    []advCand // sorted by sat
	deadline []int64   // deadline[i] is cands[i]'s recheck deadline (UnixNano)
	linked   []int32   // sats of currently linked cands, ascending (the GSL list)
	covered  []int32   // sorted cell ids of the terminal's candidate scan
	// minRecheck is the earliest deadline among cands (zero after a
	// candidate insertion); steps before it skip the terminal entirely.
	minRecheck int64
	// invNorm caches 1/|Pos[node]| — terminals never move, and the
	// sine-space elevation formula scales by it on every recheck.
	invNorm float64
}

// cellGuard is the angular margin (radians) of the trig-free same-cell test:
// a satellite at least this far inside its cached cell's boundaries provably
// maps to the same cell, so the exact (asin/atan2) recomputation is skipped.
// Float rounding in the exact path is ~1e-13 rad; 1e-9 is comfortably
// conservative and excludes only ~1 ns of simulated motion per boundary.
const cellGuard = 1e-9

// Advancer advances one snapshot network through time by per-step edge
// deltas instead of full rebuilds. It owns its Network exclusively: Advance
// mutates positions, link weights and — when visibility changed — the link
// set and CSR in place. Hand a snapshot to anything that outlives the step
// via Network.Clone.
//
// The incremental path requires options the delta bookkeeping can model;
// GSO arc avoidance and per-satellite beam caps (whose link sets couple
// terminals globally) force a full rebuild every step.
//
// An Advancer is not safe for concurrent use.
type Advancer struct {
	b   *Builder
	net *Network
	t   time.Time
	isl bool // a cursor over the hybrid network: builds append the lasers

	// fullReason, when set, forces a rebuild on every step (options outside
	// the incremental model) and labels the resulting deltas.
	fullReason string

	// stateValid marks the incremental bookkeeping as synchronized with
	// net at time t. Rebuilds invalidate it; the next incremental step
	// re-derives it lazily, so advancers used only for coarse sweeps never
	// pay for candidate bookkeeping.
	stateValid bool

	minElev      []float64
	sinMinElev   []float64 // sin of each shell's threshold, for sine-space verdicts
	invCosMin    []float64 // 1/cos of each threshold: linked-pair margin scale
	maxRadiusDeg float64
	// vMax bounds the ECEF-relative speed (km/s) of any satellite toward
	// any terminal; recheck hold times derive from it. nsPerKm is 1e9/vMax
	// — holds are conservative lower bounds, not part of the byte-identity
	// surface, and the ~1-ulp difference between multiplying by the
	// reciprocal and dividing vanishes inside the rateSafety margin, so the
	// recheck path trades the division for a multiply.
	vMax, nsPerKm float64

	// satShell is each satellite's shell index as a byte — the recheck loop
	// looks this up per expired pair, and the packed table stays cache-hot
	// where the constellation's Satellite records (interface-bearing, ~10×
	// wider) do not.
	satShell []uint8

	idx     *satIndex
	satCell []int32
	// Same-cell fast-path tables: guarded sin(latitude) bounds per index
	// row and the unit boundary direction per index column.
	rowSinLoG, rowSinHiG []float64
	colVec               [][2]float64

	nTerms    int
	terms     []advTerm
	cellTerms map[int][]int32
	// transCands caches, per ordered index-cell transition from→to, the
	// terminals whose scan region covers to but not from — exactly the
	// candidate sets a satellite crossing from→to enters (and, with the
	// roles swapped, leaves). Terminals are static while the incremental
	// state is valid, so entries never invalidate; satellites retrace the
	// same transitions step after step, so each list is filtered out of
	// cellTerms once and replayed thereafter instead of re-probing every
	// coverer's cell list on every crossing.
	transCands map[int64][]int32

	airCands   [][]int32
	airScratch []int32

	// isls is the ISL set the cursor anchored with at its last jump. Steps
	// inside the advance window keep it: re-pointing lasers is a
	// snapshot-scale operation, not a seconds-scale one.
	isls []constellation.ISL
	// deg tracks every node's link endpoint count across edge deltas, so
	// re-freezes skip the CSR counting pass.
	deg []int32

	cand []int32

	delta Delta
	stats AdvanceStats
}

// NewAdvancer builds the snapshot at t — the hybrid one when isl is set, the
// bent-pipe base otherwise — and wraps it in an Advancer.
func (b *Builder) NewAdvancer(t time.Time, isl bool) *Advancer {
	a := &Advancer{b: b, t: t, isl: isl}
	a.build(t, nil)
	switch {
	case b.Opts.GSO.SeparationDeg > 0:
		a.fullReason = "gso-policy"
	case b.Opts.MaxGSLsPerSatellite > 0:
		a.fullReason = "beam-cap"
	}
	return a
}

// build replaces the network with a fresh one for t: the base scan, plus, for
// a hybrid cursor, isls (nil: the placement for t), which it anchors. Either
// way the CSR is frozen once, on the network the cursor keeps.
func (a *Advancer) build(t time.Time, isls []constellation.ISL) {
	if !a.isl {
		a.net = a.b.At(t)
		return
	}
	if isls == nil {
		isls = a.b.Const.ISLsAt(t)
	}
	a.isls = isls
	sp := telemetry.StartStageSpan(telemetry.StageGraphBuild)
	defer sp.End()
	a.net = a.b.scan(t).withISLs(isls, ISLCapGbps)
}

// Net returns the advancer's live network. It is only valid until the next
// Advance call; Clone it to keep a snapshot.
func (a *Advancer) Net() *Network { return a.net }

// Stats returns cumulative advance statistics.
func (a *Advancer) Stats() AdvanceStats { return a.stats }

// Advance moves the network from its current instant to t1 and returns the
// step's delta (owned by the advancer, valid until the next call). Small
// forward steps apply per-edge deltas; option constraints, aircraft-set
// changes, backwards steps and jumps beyond MaxAdvanceStep fall back to a
// full rebuild (Delta.FullRebuild).
func (a *Advancer) Advance(t1 time.Time) *Delta {
	d := &a.delta
	*d = Delta{From: a.t, To: t1, Added: d.Added[:0], Removed: d.Removed[:0]}
	if t1.Equal(a.t) {
		d.Epoch = a.net.epoch
		return d
	}
	dt := t1.Sub(a.t)
	switch {
	case a.fullReason != "":
		return a.rebuild(t1, a.fullReason)
	case dt < 0:
		return a.rebuild(t1, "backwards-step")
	case dt > MaxAdvanceStep:
		return a.rebuild(t1, "large-jump")
	}

	var air []aircraft.Aircraft
	if a.b.Fleet != nil {
		air = a.b.Fleet.OverWaterAt(t1)
		if !sameAircraft(air, a.airNamesAt()) {
			return a.rebuild(t1, "aircraft-set-change")
		}
	}
	if !a.stateValid {
		a.initState()
	}

	sp := telemetry.StartStageSpan(telemetry.StageAdvance)
	defer sp.End()
	n := a.net

	// 1. Move the satellites in place and migrate index cells. A crossing
	// updates exactly the candidate sets whose scan region gained or lost
	// the satellite's cell — the only terminals whose GSLs can appear or
	// disappear without an elevation recheck catching it below.
	a.b.Const.PositionsECEFInto(t1, n.Pos[:n.NumSat])
	membershipChanged := false
	for i := 0; i < n.NumSat; i++ {
		p := n.Pos[i]
		old := int(a.satCell[i])
		// Trig-free same-cell test: strictly inside the cached cell's
		// latitude band (compared in sine space) and longitude wedge
		// (2-D cross products against the boundary directions), each by a
		// cellGuard margin, proves cellOf would return the same cell —
		// skipping asin/atan2 for the vast majority of satellites that do
		// not cross a boundary this step. Near-boundary (and near-pole,
		// where the wedge test degenerates) satellites take the exact path.
		// Comparisons against |p|·guard run on squares (sign-aware), so the
		// fast path needs no square root either.
		rn2 := p.Dot(p)
		row := old / a.idx.cols
		if cmpSin(p.Z, rn2, a.rowSinLoG[row]) > 0 && cmpSin(p.Z, rn2, a.rowSinHiG[row]) < 0 {
			col := old - row*a.idx.cols
			lov := a.colVec[col]
			hiv := a.colVec[(col+1)%a.idx.cols]
			g2 := rn2 * (cellGuard * cellGuard)
			c1 := lov[0]*p.Y - lov[1]*p.X
			c2 := p.X*hiv[1] - p.Y*hiv[0]
			if c1 > 0 && c1*c1 > g2 && c2 > 0 && c2*c2 > g2 {
				continue
			}
		}
		ll := geo.FromECEF(p)
		a.idx.subLat[i], a.idx.subLon[i] = ll.Lat, ll.Lon
		c := a.idx.cellOf(ll.Lat, ll.Lon)
		if c == old {
			continue
		}
		d.CellCrossings++
		a.idx.move(int32(i), old, c)
		a.satCell[i] = int32(c)
		for _, ti := range a.transTerms(old, c) {
			insertCand(&a.terms[ti], int32(i))
		}
		for _, ti := range a.transTerms(c, old) {
			if wasLinked := removeCand(&a.terms[ti], int32(i)); wasLinked {
				d.Removed = append(d.Removed, GSLChange{Term: a.terms[ti].node, Sat: int32(i)})
				membershipChanged = true
			}
		}
	}

	// 2. Recheck candidate pairs whose deadline expired (fresh inserts
	// carry a zero deadline and are evaluated here too). Between deadline
	// and now the elevation cannot have drifted across the threshold, so
	// sleeping pairs keep last step's verdict exactly.
	t1ns := t1.UnixNano()
	// Loop locals keep the per-shell tables and scalars in registers across
	// the scan instead of re-loading them through the advancer each recheck.
	pos := n.Pos
	satShell := a.satShell
	sinMin := a.sinMinElev
	minElevT := a.minElev
	invCos := a.invCosMin
	nsPerKm := a.nsPerKm
	for ti := range a.terms {
		tm := &a.terms[ti]
		if tm.minRecheck > t1ns {
			continue // every pair of this terminal is still sleeping
		}
		minNext := int64(math.MaxInt64)
		obs := n.Pos[tm.node]
		dl := tm.deadline
		for ci := range dl {
			if dl[ci] > t1ns {
				if dl[ci] < minNext {
					minNext = dl[ci]
				}
				continue
			}
			cd := &tm.cands[ci]
			d.Rechecked++
			// Hand-inlined (*Advancer).checkPair: the compiler refuses
			// (cost 263 vs budget 80) and the call alone burns ~10 ns ×
			// thousands of rechecks per step. initState keeps calling the
			// named function; both must evaluate the identical expression
			// tree — the differential suites compare every verdict the
			// two produce, so any drift fails them.
			tgt := pos[cd.sat]
			shell := satShell[cd.sat]
			dv := tgt.Sub(obs)
			dn := dv.Norm()
			rx := dv.Dot(obs)*tm.invNorm - sinMin[shell]*dn
			x := rx / dn
			var linked bool
			switch {
			case x > sinBand:
				linked = true
			case x < -sinBand:
				linked = false
			default:
				linked = geo.Elevation(obs, tgt) >= minElevT[shell]
			}
			if x < 0 {
				x, rx = -x, -rx
			} else {
				x *= invCos[shell]
				rx *= invCos[shell]
			}
			var ns float64
			if x < 1 {
				ns = (rx - 0.5*rx*x) * nsPerKm
			} else {
				h := x + 0.5*x*x
				ns = dn * (h / (1 + h)) * nsPerKm
			}
			var hold int64
			if ns > 0 {
				hold = int64(ns)
			}
			dl[ci] = t1ns + hold
			if dl[ci] < minNext {
				minNext = dl[ci]
			}
			if linked != cd.linked {
				cd.linked = linked
				membershipChanged = true
				if linked {
					tm.linked = insertSorted(tm.linked, cd.sat)
					d.Added = append(d.Added, GSLChange{Term: tm.node, Sat: cd.sat})
				} else {
					tm.linked = removeSorted(tm.linked, cd.sat)
					d.Removed = append(d.Removed, GSLChange{Term: tm.node, Sat: cd.sat})
				}
			}
		}
		tm.minRecheck = minNext
	}

	// 3. Aircraft move every step, so their candidate sets are rescanned
	// wholesale (fleets are small next to the ground segment).
	airBase := n.NumSat + a.nTerms
	for ai := range air {
		node := int32(airBase + ai)
		n.Pos[node] = air[ai].Pos.ToECEF()
		list := a.scanAircraft(node, air[ai].Pos)
		if diffAirCands(d, node, a.airCands[ai], list) {
			membershipChanged = true
		}
		a.airCands[ai] = append(a.airCands[ai][:0], list...)
	}

	// 4. Weights always drift (everything moved); the link set only changed
	// if some visibility verdict flipped.
	for _, ch := range d.Added {
		a.deg[ch.Term]++
		a.deg[ch.Sat]++
	}
	for _, ch := range d.Removed {
		a.deg[ch.Term]--
		a.deg[ch.Sat]--
	}
	if membershipChanged {
		a.materializeAndFreeze()
	} else {
		a.reweight()
	}
	d.Reweighted = len(n.Links)

	a.t = t1
	n.epoch++
	d.Epoch = n.epoch
	a.stats.Steps++
	a.stats.Added += len(d.Added)
	a.stats.Removed += len(d.Removed)
	a.stats.CellCrossings += int64(d.CellCrossings)
	a.stats.Rechecked += int64(d.Rechecked)
	return d
}

// rebuild replaces the network with a fresh At build and invalidates the
// incremental bookkeeping (re-derived lazily on the next incremental step).
func (a *Advancer) rebuild(t1 time.Time, reason string) *Delta {
	telemetry.EmitEvent(nil, telemetry.CatAdvance, telemetry.SevInfo,
		"advancer full-rebuild fallback", telemetry.Str("reason", reason))
	epoch := a.net.epoch + 1
	// A jump re-places the lasers with everything else; a rebuild forced
	// inside the advance window keeps the anchored set, like the incremental
	// steps around it.
	keep := a.isls
	if dt := t1.Sub(a.t); dt < 0 || dt > MaxAdvanceStep {
		keep = nil
	}
	a.build(t1, keep)
	a.net.epoch = epoch
	a.t = t1
	a.stateValid = false
	d := &a.delta
	d.Epoch = epoch
	d.FullRebuild = true
	d.Reason = reason
	d.Reweighted = len(a.net.Links)
	a.stats.Steps++
	a.stats.FullRebuilds++
	return d
}

// airNamesAt returns the aircraft-name list the current network was built
// with (node layout: aircraft follow the segment terminals).
func (a *Advancer) airNamesAt() []string {
	base := a.net.NumSat + a.net.NumCity + a.net.NumRelay
	return a.net.Name[base:]
}

func sameAircraft(air []aircraft.Aircraft, names []string) bool {
	if len(air) != len(names) {
		return false
	}
	for i := range air {
		if air[i].Name != names[i] {
			return false
		}
	}
	return true
}

// initState derives the incremental bookkeeping — satellite index, per-
// terminal candidate sets, reverse cell subscriptions, the elevation-rate
// bound — from the current network at the current instant.
func (a *Advancer) initState() {
	n := a.net
	b := a.b
	a.minElev, a.maxRadiusDeg = b.visibility()
	a.sinMinElev = a.sinMinElev[:0]
	a.invCosMin = a.invCosMin[:0]
	for _, e := range a.minElev {
		a.sinMinElev = append(a.sinMinElev, math.Sin(e*geo.Deg))
		a.invCosMin = append(a.invCosMin, 1/math.Cos(e*geo.Deg))
	}
	a.idx = newSatIndex(n.Pos[:n.NumSat], satCellDeg)
	if cap(a.satCell) < n.NumSat {
		a.satCell = make([]int32, n.NumSat)
	}
	a.satCell = a.satCell[:n.NumSat]
	for i := 0; i < n.NumSat; i++ {
		a.satCell[i] = int32(a.idx.cellOf(a.idx.subLat[i], a.idx.subLon[i]))
	}

	// Same-cell fast-path tables: the guarded sine of each row's latitude
	// boundaries and the unit direction of each column's longitude boundary.
	// The guards shrink each cell by cellGuard so a satellite passing the
	// trig-free test is strictly inside it even after asin/atan2 rounding.
	if len(a.rowSinLoG) != a.idx.rows {
		a.rowSinLoG = make([]float64, a.idx.rows)
		a.rowSinHiG = make([]float64, a.idx.rows)
		for r := 0; r < a.idx.rows; r++ {
			a.rowSinLoG[r] = math.Sin((float64(r)*a.idx.cellDeg-90)*geo.Deg) + cellGuard
			a.rowSinHiG[r] = math.Sin((float64(r+1)*a.idx.cellDeg-90)*geo.Deg) - cellGuard
		}
	}
	if len(a.colVec) != a.idx.cols {
		a.colVec = make([][2]float64, a.idx.cols)
		for c := 0; c < a.idx.cols; c++ {
			s, co := math.Sincos((float64(c)*a.idx.cellDeg - 180) * geo.Deg)
			a.colVec[c] = [2]float64{co, s}
		}
	}

	// Worst-case closing speed between any satellite and any terminal: the
	// lowest shell's orbital velocity plus Earth rotation at the highest
	// shell's radius, padded by altSlackKm and rateSafety. Recheck deadlines
	// derive from it via flipDeadline.
	minAlt, maxAlt := b.Const.Shells[0].AltitudeKm, b.Const.Shells[0].AltitudeKm
	for _, sh := range b.Const.Shells[1:] {
		if sh.AltitudeKm < minAlt {
			minAlt = sh.AltitudeKm
		}
		if sh.AltitudeKm > maxAlt {
			maxAlt = sh.AltitudeKm
		}
	}
	a.vMax = (math.Sqrt(geo.EarthMu/(geo.EarthRadius+minAlt-altSlackKm)) +
		geo.EarthRotationRate*(geo.EarthRadius+maxAlt+altSlackKm)) * rateSafety
	a.nsPerKm = 1e9 / a.vMax

	if cap(a.satShell) < n.NumSat {
		a.satShell = make([]uint8, n.NumSat)
	}
	a.satShell = a.satShell[:n.NumSat]
	for i := 0; i < n.NumSat; i++ {
		a.satShell[i] = uint8(b.Const.Sats[i].ShellIndex)
	}

	a.nTerms = len(b.Seg.Terminals)
	a.terms = a.terms[:0]
	a.cellTerms = make(map[int][]int32, 4*a.nTerms)
	a.transCands = make(map[int64][]int32)
	for i, term := range b.Seg.Terminals {
		tm := advTerm{node: int32(n.NumSat + i)}
		tm.invNorm = 1 / n.Pos[tm.node].Norm()
		tm.covered = a.idx.coveredCells(term.Pos.Lat, term.Pos.Lon, a.maxRadiusDeg, nil)
		for _, c := range tm.covered {
			a.cellTerms[int(c)] = append(a.cellTerms[int(c)], int32(len(a.terms)))
		}
		a.cand = a.idx.candidates(term.Pos.Lat, term.Pos.Lon, a.maxRadiusDeg, a.cand)
		sortDedupe(&a.cand)
		for _, si := range a.cand {
			tm.cands = append(tm.cands, advCand{sat: si})
		}
		tm.deadline = make([]int64, len(tm.cands))
		a.terms = append(a.terms, tm)
	}

	// Evaluate every pair now so the candidate verdicts (and deadlines)
	// are synchronized with the network's link set.
	t0ns := a.t.UnixNano()
	for ti := range a.terms {
		tm := &a.terms[ti]
		minNext := int64(math.MaxInt64)
		tm.linked = tm.linked[:0]
		for ci := range tm.cands {
			cd := &tm.cands[ci]
			linked, hold := a.checkPair(n.Pos[tm.node], n.Pos[cd.sat], tm.invNorm, int(a.satShell[cd.sat]))
			cd.linked = linked
			if linked {
				tm.linked = append(tm.linked, cd.sat)
			}
			tm.deadline[ci] = t0ns + hold
			if tm.deadline[ci] < minNext {
				minNext = tm.deadline[ci]
			}
		}
		tm.minRecheck = minNext
	}

	a.airCands = a.airCands[:0]
	if b.Fleet != nil {
		air := b.Fleet.OverWaterAt(a.t)
		airBase := n.NumSat + a.nTerms
		for ai := range air {
			list := a.scanAircraft(int32(airBase+ai), air[ai].Pos)
			a.airCands = append(a.airCands, append([]int32(nil), list...))
		}
	}

	if cap(a.deg) < len(n.Kind) {
		a.deg = make([]int32, len(n.Kind))
	}
	a.deg = a.deg[:len(n.Kind)]
	for i := range a.deg {
		a.deg[i] = 0
	}
	for _, l := range n.Links {
		a.deg[l.A]++
		a.deg[l.B]++
	}
	a.stateValid = true
}

// cmpSin compares z against |p|·g (|p| = √rn2) without the square root:
// the sign of z − |p|·g is recovered from the operands' signs plus a
// squared-magnitude comparison. Returns >0, 0, or <0 like a three-way compare
// (0 only in the exact-tie case, which callers treat as "not strictly inside").
func cmpSin(z, rn2, g float64) int {
	zz, gg := z*z, g*g*rn2
	switch {
	case z >= 0 && g < 0:
		return 1
	case z < 0 && g >= 0:
		return -1
	case z >= 0: // g >= 0 too: larger magnitude wins
		if zz > gg {
			return 1
		} else if zz < gg {
			return -1
		}
		return 0
	default: // both negative: smaller magnitude wins
		if zz < gg {
			return 1
		} else if zz > gg {
			return -1
		}
		return 0
	}
}

// sinBand is the sine-space half-width inside which a verdict is decided by
// the exact geo.Elevation formula instead of the sine comparison. The
// combined rounding of asin, the degree conversion, and the threshold's own
// sine is below 1e-14 in sine space, so outside ±1e-12 the two predicates
// provably agree — and the band is hit with probability ~0, keeping the
// advance path byte-identical to Builder.At without its per-pair asin.
const sinBand = 1e-12

// checkPair evaluates the visibility predicate geo.Elevation(obs,tgt) ≥
// minElev[shell] without the arcsine, and bounds (in nanoseconds) how long
// the verdict provably holds.
//
// Verdict: elevation ≥ threshold iff sin(elev) ≥ sin(threshold) (both in
// [−90°,90°], where sine is monotonic). The margin x = sin(elev) −
// sin(threshold) is evaluated as (d·obs/|obs| − sin(threshold)·|d|)/|d| —
// one division instead of sinE's two. Knife-edge pairs within sinBand of
// the threshold — and degenerate zero vectors, whose comparisons go false
// through NaN — fall back to the exact formula.
//
// Hold time: the elevation drifts no faster than v/range(t) rad/s, and
// range(t) ≥ r0 − v·t, so the drift accumulated by time T is at most
// ln(r0/(r0−v·T)); solving drift = margin gives T = (r0/v)·(1 − e^−x). |x|
// lower-bounds the angular margin (asin only expands distances), and
// 1 − e^−x is lower-bounded by x − x²/2 on [0,1] (alternating series) —
// with r0·x at hand the common case costs no further division — and by
// h/(1+h), h = x + x²/2 (from e^x ≥ 1 + x + x²/2) beyond. v is the
// advancer's padded worst-case closing speed. No degenerate-geometry
// special case: r0 → 0 drives T → 0, and a NaN margin converts to a zero
// hold (recheck every step).
//
// The recheck loop in Advance carries a hand-inlined copy of this body (the
// call overhead is measurable at thousands of rechecks per step and the
// compiler's inline budget refuses a function this size); keep the two
// expression trees identical or the differential suites fail.
func (a *Advancer) checkPair(obs, tgt geo.Vec3, invNorm float64, shell int) (linked bool, holdNs int64) {
	dv := tgt.Sub(obs)
	dn := dv.Norm()
	rx := dv.Dot(obs)*invNorm - a.sinMinElev[shell]*dn // range·margin
	x := rx / dn                                       // sine-space margin
	switch {
	case x > sinBand:
		linked = true
	case x < -sinBand:
		linked = false
	default:
		linked = geo.Elevation(obs, tgt) >= a.minElev[shell]
	}
	if x < 0 {
		x, rx = -x, -rx
	} else {
		// A linked pair's elevation interval [minElev, e] lies where
		// cos ≤ cos(minElev), so the angular margin is at least
		// x/cos(minElev) — a provably longer hold for every linked pair.
		// (minElev = 90° degenerates through ∞·0 = NaN to a zero hold.)
		x *= a.invCosMin[shell]
		rx *= a.invCosMin[shell]
	}
	var ns float64
	if x < 1 {
		ns = (rx - 0.5*rx*x) * a.nsPerKm
	} else {
		h := x + 0.5*x*x
		ns = dn * (h / (1 + h)) * a.nsPerKm
	}
	if ns > 0 {
		return linked, int64(ns)
	}
	return linked, 0
}

// scanAircraft returns the sorted, deduplicated satellite list visible from
// an aircraft node (same rule Builder.At applies: candidate scan, then the
// per-shell elevation threshold; no GSO constraint for aircraft). The result
// aliases the advancer's scratch buffer.
func (a *Advancer) scanAircraft(node int32, ll geo.LatLon) []int32 {
	n := a.net
	a.cand = a.idx.candidates(ll.Lat, ll.Lon, a.maxRadiusDeg, a.cand)
	list := a.airScratch[:0]
	for _, si := range a.cand {
		if geo.Elevation(n.Pos[node], n.Pos[si]) >= a.minElev[a.b.Const.Sats[si].ShellIndex] {
			list = append(list, si)
		}
	}
	sortDedupe(&list)
	a.airScratch = list
	return list
}

// diffAirCands records GSL deltas between an aircraft's previous and new
// visible-satellite lists (both sorted) and reports whether they differ.
func diffAirCands(d *Delta, node int32, old, new []int32) bool {
	changed := false
	i, j := 0, 0
	for i < len(old) || j < len(new) {
		switch {
		case j == len(new) || (i < len(old) && old[i] < new[j]):
			d.Removed = append(d.Removed, GSLChange{Term: node, Sat: old[i]})
			changed = true
			i++
		case i == len(old) || new[j] < old[i]:
			d.Added = append(d.Added, GSLChange{Term: node, Sat: new[j]})
			changed = true
			j++
		default:
			i++
			j++
		}
	}
	return changed
}

// reweight recomputes every link's propagation delay for the moved positions,
// in place, and refreshes the CSR's arc weights in the same pass: replaying
// the freeze's fill cursor in link-index order lands each link on exactly the
// two arc slots the freeze gave it. The link set — and so the CSR's shape —
// is unchanged; this is the one writer of Link.OneWayMs on a frozen network.
func (a *Advancer) reweight() {
	n := a.net
	n.resetBound(true)
	pos, ms := n.Pos, n.adjMs
	next := n.csrNext[:len(n.Kind)]
	copy(next, n.adjStart)
	for i := range n.Links {
		l := &n.Links[i]
		w := pos[l.A].Distance(pos[l.B]) * geo.MsPerKm
		l.OneWayMs = w
		ms[next[l.A]] = w
		next[l.A]++
		ms[next[l.B]] = w
		next[l.B]++
	}
}

// materializeAndFreeze rebuilds the canonical link list — per terminal in
// node order, its linked satellites ascending, then aircraft, then ISLs:
// exactly the order (and delay arithmetic) of Builder.At after its
// per-terminal sort — and the network's CSR in one pass. The advancer's
// maintained degree counts give the CSR prefix sums up front, so each link's
// two edge slots are written the moment the link is appended — in link-index
// order, exactly the order freezeCSRLocked's fill pass produces — and the
// separate two-endpoint traversal over the finished link list disappears.
func (a *Advancer) materializeAndFreeze() {
	n := a.net
	n.csrMu.Lock()
	defer n.csrMu.Unlock()
	sp := telemetry.StartStageSpan(telemetry.StageCSRFreeze)
	defer sp.End()

	nn := len(n.Kind)
	start := n.csrStart(nn)
	start[0] = 0
	copy(start[1:], a.deg[:nn])
	for i := 0; i < nn; i++ {
		start[i+1] += start[i]
	}
	edges, ms, next := n.csrArcs(start, int(start[nn]))

	pos := n.Pos
	links := n.Links[:0]
	// link appends one link and writes its two arcs into the next free slot
	// of each endpoint.
	link := func(from, to int32, kind LinkKind, capGbps float64) {
		li := int32(len(links))
		w := pos[from].Distance(pos[to]) * geo.MsPerKm
		links = append(links, Link{A: from, B: to, Kind: kind, CapGbps: capGbps, OneWayMs: w})
		k := next[from]
		edges[k], ms[k] = EdgeRef{To: to, Link: li}, w
		next[from]++
		k = next[to]
		edges[k], ms[k] = EdgeRef{To: from, Link: li}, w
		next[to]++
	}
	for ti := range a.terms {
		tm := &a.terms[ti]
		for _, sat := range tm.linked {
			link(tm.node, sat, LinkGSL, GSLCapGbps)
		}
	}
	airBase := n.NumSat + a.nTerms
	for ai := range a.airCands {
		for _, si := range a.airCands[ai] {
			link(int32(airBase+ai), si, LinkGSL, GSLCapGbps)
		}
	}
	for _, l := range a.isls {
		link(int32(l.A), int32(l.B), LinkISL, ISLCapGbps)
	}
	n.Links = links
	n.adjStart, n.adjEdges, n.adjMs = start, edges, ms
	n.resetBound(true)
	n.csrValid.Store(true)
}

// move migrates one satellite between index cells (order within a cell is
// irrelevant: per-terminal candidate lists are kept sorted).
func (x *satIndex) move(sat int32, from, to int) {
	cell := x.cells[from]
	for i, s := range cell {
		if s == sat {
			cell[i] = cell[len(cell)-1]
			x.cells[from] = cell[:len(cell)-1]
			break
		}
	}
	x.cells[to] = append(x.cells[to], sat)
}

// coveredCells lists (sorted, deduplicated) the index cells candidates()
// scans for a point — the terminal's static subscription set. It must
// mirror candidates()'s iteration exactly: candidate membership is defined
// as "the satellite's cell is in this set".
func (x *satIndex) coveredCells(lat, lon, radiusDeg float64, out []int32) []int32 {
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
			cCells = x.cols / 2
		} else {
			cCells = int(radiusDeg/(x.cellDeg*cosLat)) + 1
		}
		c0 := int((lon + 180) / x.cellDeg)
		for dc := -cCells; dc <= cCells; dc++ {
			c := ((c0+dc)%x.cols + x.cols) % x.cols
			out = append(out, int32(r*x.cols+c))
		}
	}
	sortDedupe(&out)
	return out
}

// lowerBound returns the first index i with s[i] >= v. Hand-rolled
// sort.Search: the per-probe closure call is measurable in the crossing
// bookkeeping, which probes tiny per-terminal slices thousands of times a
// step, and this form inlines.
func lowerBound(s []int32, v int32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lowerBoundCand is lowerBound over a candidate list ordered by satellite.
func lowerBoundCand(c []advCand, sat int32) int {
	lo, hi := 0, len(c)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c[mid].sat < sat {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func containsCell(covered []int32, cell int32) bool {
	i := lowerBound(covered, cell)
	return i < len(covered) && covered[i] == cell
}

// transTerms returns the terminals whose scan region covers cell `to` but
// not cell `from` — the candidate sets gained by a satellite crossing
// from→to, and (called with the arguments swapped) the ones lost. Computed
// on first use per ordered pair and cached for the advancer's lifetime;
// terminal scan regions are static, so replay is exact. Works for any cell
// pair, so multi-cell jumps within MaxAdvanceStep need no special case.
func (a *Advancer) transTerms(from, to int) []int32 {
	key := int64(from)<<32 | int64(uint32(to))
	if l, ok := a.transCands[key]; ok {
		return l
	}
	l := []int32{}
	for _, ti := range a.cellTerms[to] {
		if !containsCell(a.terms[ti].covered, int32(from)) {
			l = append(l, ti)
		}
	}
	a.transCands[key] = l
	return l
}

// insertCand adds a candidate pair (no-op if present) with an immediate
// recheck deadline, keeping the list sorted by satellite. The terminal's
// min-deadline gate resets so the recheck loop visits the new pair this step.
func insertCand(tm *advTerm, sat int32) {
	i := lowerBoundCand(tm.cands, sat)
	if i < len(tm.cands) && tm.cands[i].sat == sat {
		return
	}
	tm.cands = append(tm.cands, advCand{})
	copy(tm.cands[i+1:], tm.cands[i:])
	tm.cands[i] = advCand{sat: sat}
	tm.deadline = append(tm.deadline, 0)
	copy(tm.deadline[i+1:], tm.deadline[i:])
	tm.deadline[i] = 0
	tm.minRecheck = 0
}

// removeCand drops a candidate pair (and its GSL, if linked), reporting
// whether it was linked.
func removeCand(tm *advTerm, sat int32) bool {
	i := lowerBoundCand(tm.cands, sat)
	if i >= len(tm.cands) || tm.cands[i].sat != sat {
		return false
	}
	wasLinked := tm.cands[i].linked
	tm.cands = append(tm.cands[:i], tm.cands[i+1:]...)
	tm.deadline = append(tm.deadline[:i], tm.deadline[i+1:]...)
	if wasLinked {
		tm.linked = removeSorted(tm.linked, sat)
	}
	return wasLinked
}

// insertSorted adds v to an ascending slice (no-op if present).
func insertSorted(s []int32, v int32) []int32 {
	i := lowerBound(s, v)
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// removeSorted drops v from an ascending slice (no-op if absent).
func removeSorted(s []int32, v int32) []int32 {
	i := lowerBound(s, v)
	if i >= len(s) || s[i] != v {
		return s
	}
	return append(s[:i], s[i+1:]...)
}

// sortDedupe sorts an int32 slice ascending and removes duplicates in
// place (allocation-free; the advance hot path calls it per aircraft).
func sortDedupe(s *[]int32) {
	v := *s
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	out := v[:0]
	for i, x := range v {
		if i > 0 && x == v[i-1] {
			continue
		}
		out = append(out, x)
	}
	*s = out
}
