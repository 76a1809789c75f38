package topo

import (
	"container/heap"
	"math"
	"sort"
	"time"

	"leosim/internal/constellation"
	"leosim/internal/geo"
	"leosim/internal/ground"
)

// Demand motif tuning. The corridor model is deliberately coarse — it only
// has to rank candidate links, not predict traffic — and every knob is fixed
// so placement is deterministic.
const (
	// defaultDemandCities sizes the fallback city set when the caller
	// supplies none.
	defaultDemandCities = 100
	// demandTopCities bounds how many of the most populous cities seed
	// gravity corridors.
	demandTopCities = 40
	// demandTopPairs bounds how many corridors (by gravity weight) are
	// kept.
	demandTopPairs = 150
	// demandMinPairKm matches the experiments' terrestrial cutoff: closer
	// pairs never ride the constellation.
	demandMinPairKm = 2000
	// demandSampleKm is the spacing of corridor sample points along the
	// great circle.
	demandSampleKm = 900
	// demandSigmaKm is the Gaussian radius of a sample's attraction: a
	// candidate link scores by how closely its midpoint tracks corridor
	// samples.
	demandSigmaKm = 1200
	// demandMaxOffset bounds the cross-plane slot offsets considered
	// (±demandMaxOffset around same-slot alignment).
	demandMaxOffset = 3
	// demandMaxSkip bounds how many planes a single candidate link may
	// jump. Slot spacing is ~3× plane spacing on the Starlink shell, so a
	// multi-plane skip combined with a small slot offset is what makes a
	// physically ~45° diagonal — the express geometry a same-plane-step
	// candidate set can never produce. The atmosphere-floor prune, not this
	// bound, is what actually limits reach; this only caps the candidate
	// enumeration.
	demandMaxSkip = 8
	// demandInterCap caps inter-plane terminals per satellite. Two ring
	// terminals plus this many steerable ones stays within one extra
	// terminal pair of the +Grid bus while letting hot regions densify.
	demandInterCap = 4
	// demandSwapFrac is the fraction of the cross-plane budget traded from
	// the +Grid lattice to express links: the coldest lattice links are
	// dropped and exactly that many corridor diagonals placed instead. The
	// rest of the lattice stays, so off-corridor pairs keep near-+Grid
	// routing.
	demandSwapFrac = 0.4
	// demandMinAltKm is the atmosphere floor an express link must clear at
	// every instant, not just placement time: candidates are pruned by the
	// worst-case chord of their plane/slot relation, so a link that passes
	// here can never dip below the floor as the constellation rotates.
	// Matches the §2 ~80 km floor `leosim check` enforces, plus margin.
	demandMinAltKm = 85
)

// demandSample is one corridor point: a unit-sphere position, the unit
// tangent of the great circle at that point (the direction traffic flows
// through it), and the gravity weight of its corridor.
type demandSample struct {
	u geo.Vec3
	t geo.Vec3
	w float64
}

// demandMotif spends a fixed cross-plane ISL budget along gravity demand:
// corridors between the most populous city pairs are sampled along their
// great circles, then the +Grid lattice's coldest links (least demand
// flowing nearby) are traded for corridor-aligned express diagonals chosen
// by a submodular greedy (arXiv:2601.10083). Intra-plane rings are always
// kept — they are the stable backbone — so at +Grid-parity budget the total
// link count matches the +Grid exactly while a demandSwapFrac slice of the
// lattice crowds over demand. The motif is epoch-aware: satellites sweep
// over the corridors, so the swap is recomputed per snapshot.
type demandMotif struct {
	samples []demandSample
}

func newDemandMotif(cities []ground.City) *demandMotif {
	return &demandMotif{samples: demandCorridors(cities)}
}

// demandCorridors builds the corridor sample set from a city list (assumed
// sorted by descending population, as ground.Cities returns).
func demandCorridors(cities []ground.City) []demandSample {
	top := cities
	if len(top) > demandTopCities {
		top = top[:demandTopCities]
	}
	type corridor struct {
		i, j int
		w    float64
	}
	var cors []corridor
	for i := 0; i < len(top); i++ {
		for j := i + 1; j < len(top); j++ {
			a, b := geo.LL(top[i].Lat, top[i].Lon), geo.LL(top[j].Lat, top[j].Lon)
			if geo.GreatCircleKm(a, b) < demandMinPairKm {
				continue
			}
			cors = append(cors, corridor{i: i, j: j, w: top[i].Pop * top[j].Pop})
		}
	}
	sort.Slice(cors, func(x, y int) bool {
		if cors[x].w != cors[y].w {
			return cors[x].w > cors[y].w
		}
		if cors[x].i != cors[y].i {
			return cors[x].i < cors[y].i
		}
		return cors[x].j < cors[y].j
	})
	if len(cors) > demandTopPairs {
		cors = cors[:demandTopPairs]
	}
	var samples []demandSample
	for _, co := range cors {
		a := geo.LL(top[co.i].Lat, top[co.i].Lon).ToECEF().Unit()
		b := geo.LL(top[co.j].Lat, top[co.j].Lon).ToECEF().Unit()
		// Slerp sample points every ~demandSampleKm along the great circle.
		ang := a.AngleTo(b)
		arcKm := ang * geo.EarthRadius
		n := int(arcKm/demandSampleKm) + 1
		sin := math.Sin(ang)
		for k := 0; k <= n; k++ {
			f := float64(k) / float64(n)
			var u geo.Vec3
			if sin < 1e-9 {
				u = a
			} else {
				u = a.Scale(math.Sin((1-f)*ang) / sin).Add(b.Scale(math.Sin(f*ang) / sin))
			}
			u = u.Unit()
			// Corridor tangent at u: the component of the far endpoint
			// orthogonal to u, i.e. the great-circle direction toward b.
			tan := b.Sub(u.Scale(u.Dot(b)))
			if tan.Norm2() < 1e-18 {
				continue // sample sits at (or antipodal to) b; no direction
			}
			samples = append(samples, demandSample{u: u, t: tan.Unit(), w: co.w})
		}
	}
	return samples
}

func (m *demandMotif) Links(c *constellation.Constellation) []constellation.ISL {
	return m.LinksAt(c, geo.Epoch)
}

func (m *demandMotif) LinksAt(c *constellation.Constellation, t time.Time) []constellation.ISL {
	pos := c.PositionsECEF(t)
	isls := planeRing(c, nil)

	// Squared chord cutoff at 3σ on the unit sphere: beyond it the Gaussian
	// contribution is < e⁻⁹ and skipped.
	cut2 := (3.0 * demandSigmaKm / geo.EarthRadius) * (3.0 * demandSigmaKm / geo.EarthRadius)
	invSig2 := (geo.EarthRadius / demandSigmaKm) * (geo.EarthRadius / demandSigmaKm)
	// coverageOf is the express-link objective: corridor proximity gated by
	// direction alignment (see demandCoverage).
	coverageOf := func(a, b int) (cov []demandCoverage, score float64) {
		mid := pos[a].Add(pos[b]).Unit()
		dir := pos[b].Sub(pos[a]).Unit()
		for sj, s := range m.samples {
			d2 := mid.Sub(s.u).Norm2()
			if d2 > cut2 {
				continue
			}
			align := dir.Dot(s.t)
			g := align * align * math.Exp(-d2*invSig2)
			if g < 1e-6 {
				continue
			}
			cov = append(cov, demandCoverage{sample: sj, g: g})
			score += s.w * g
		}
		return cov, score
	}
	// proximityOf ranks baseline links for removal: direction is ignored
	// because a grid link near a corridor carries its crossing traffic no
	// matter which way it points.
	proximityOf := func(a, b int) (score float64) {
		mid := pos[a].Add(pos[b]).Unit()
		for _, s := range m.samples {
			d2 := mid.Sub(s.u).Norm2()
			if d2 > cut2 {
				continue
			}
			score += s.w * math.Exp(-d2*invSig2)
		}
		return score
	}

	// Baseline: the +Grid cross-plane lattice, each link scored by how much
	// demand flows near it.
	type baseLink struct {
		score float64
		a, b  int
	}
	var baseline []baseLink
	for si, sh := range c.Shells {
		if sh.Planes < 2 {
			continue
		}
		lastPlane := sh.Planes
		if !wrapsSeam(sh) {
			lastPlane--
		}
		for plane := 0; plane < lastPlane; plane++ {
			next := plane + 1
			phase := 0
			if next == sh.Planes {
				next = 0
				phase = sh.WalkerF // seam wrap absorbs the Walker phasing
			}
			for slot := 0; slot < sh.SatsPerPlane; slot++ {
				a := c.SatIndex(si, plane, slot)
				b := c.SatIndex(si, next, (slot+phase)%sh.SatsPerPlane)
				if a == b {
					continue
				}
				l := constellation.OrderISL(a, b)
				baseline = append(baseline, baseLink{score: proximityOf(l.A, l.B), a: l.A, b: l.B})
			}
		}
	}

	// Swap at +Grid parity (one cross-plane link per satellite, so placement
	// is compared at equal hardware cost): keep the (1−frac) baseline links
	// demand leans on hardest, free the coldest ones, and respend exactly
	// that many on express diagonals.
	swap := int(demandSwapFrac * float64(len(baseline)))
	keep := len(baseline) - swap
	sort.Slice(baseline, func(x, y int) bool {
		if baseline[x].score != baseline[y].score {
			return baseline[x].score > baseline[y].score
		}
		if baseline[x].a != baseline[y].a {
			return baseline[x].a < baseline[y].a
		}
		return baseline[x].b < baseline[y].b
	})

	res := make([]float64, len(m.samples))
	for i, s := range m.samples {
		res[i] = s.w
	}
	seen := map[constellation.ISL]bool{}
	interDeg := make(map[int]int)
	for _, bl := range baseline[:keep] {
		isls = append(isls, constellation.ISL{A: bl.a, B: bl.b})
		seen[constellation.ISL{A: bl.a, B: bl.b}] = true
		interDeg[bl.a]++
		interDeg[bl.b]++
		// Kept links already serve their corridors; decay the residuals so
		// express links go where the lattice doesn't.
		cov, _ := coverageOf(bl.a, bl.b)
		for _, cv := range cov {
			res[cv.sample] *= 1 - cv.g
		}
	}

	// Express candidates: multi-plane skips with slot offsets — the only
	// geometry that yields physically diagonal links on an anisotropic
	// Walker grid.
	var cands []*demandCand
	for si, sh := range c.Shells {
		if sh.Planes < 2 {
			continue
		}
		lastPlane := sh.Planes
		if !wrapsSeam(sh) {
			lastPlane--
		}
		maxSkip := demandMaxSkip
		if maxSkip > sh.Planes-1 {
			maxSkip = sh.Planes - 1
		}
		// Altitude prune per (Δplane, Δslot) relation: worst-case chord over
		// all time must clear the atmosphere floor. Cached because every
		// (plane, slot) start shares the handful of relations.
		type relKey struct{ dPlane, dSlot int }
		clears := map[relKey]bool{}
		relClears := func(a, b int) bool {
			sa, sb := c.Sats[a], c.Sats[b]
			k := relKey{sb.Plane - sa.Plane, sb.Slot - sa.Slot}
			ok, cached := clears[k]
			if !cached {
				_, hi := sh.ChordBoundsKm(k.dPlane, k.dSlot)
				ok = chordClearsFloor(sh, hi)
				clears[k] = ok
			}
			return ok
		}
		for plane := 0; plane < lastPlane; plane++ {
			for skip := 1; skip <= maxSkip; skip++ {
				next := plane + skip
				phase := 0
				if next >= sh.Planes {
					if !wrapsSeam(sh) {
						break // the jump would cross the physical seam
					}
					next -= sh.Planes
					phase = sh.WalkerF // seam wrap absorbs the Walker phasing
				}
				for slot := 0; slot < sh.SatsPerPlane; slot++ {
					a := c.SatIndex(si, plane, slot)
					for off := -demandMaxOffset; off <= demandMaxOffset; off++ {
						tgt := ((slot+phase+off)%sh.SatsPerPlane + sh.SatsPerPlane) % sh.SatsPerPlane
						b := c.SatIndex(si, next, tgt)
						if a == b {
							continue
						}
						l := constellation.OrderISL(a, b)
						if seen[l] {
							continue
						}
						seen[l] = true
						if !relClears(l.A, l.B) {
							continue // would graze the atmosphere at some point
						}
						cd := &demandCand{a: l.A, b: l.B}
						cd.cov, cd.score = coverageOf(l.A, l.B)
						if cd.score <= 0 {
							continue // never spend budget off-corridor
						}
						cands = append(cands, cd)
					}
				}
			}
		}
	}

	// Lazy submodular greedy: each sample carries a residual weight that a
	// taken link multiplies down by (1−g), so the next-best link covers
	// corridor stretches the budget hasn't reached yet instead of stacking
	// parallel links on the same hot spot. Marginal scores only ever
	// shrink, so a candidate whose stale score still beats the runner-up
	// after refreshing is exactly the greedy argmax.
	rescore := func(cd *demandCand) {
		cd.score = 0
		for _, cv := range cd.cov {
			cd.score += res[cv.sample] * cv.g
		}
	}
	better := func(x, y *demandCand) bool {
		if x.score != y.score {
			return x.score > y.score
		}
		if x.a != y.a {
			return x.a < y.a
		}
		return x.b < y.b
	}
	h := &candHeap{cands: cands, less: better}
	heap.Init(h)
	taken := 0
	for taken < swap && h.Len() > 0 {
		cd := h.cands[0]
		if interDeg[cd.a] >= demandInterCap || interDeg[cd.b] >= demandInterCap {
			heap.Pop(h)
			continue
		}
		stale := cd.score
		rescore(cd)
		if h.Len() > 1 && cd.score < stale {
			// Score shrank; re-seat and let the next pop decide.
			heap.Fix(h, 0)
			if h.cands[0] != cd {
				continue
			}
		}
		heap.Pop(h)
		if cd.score <= 0 {
			break // residual demand exhausted; don't place junk
		}
		interDeg[cd.a]++
		interDeg[cd.b]++
		isls = append(isls, constellation.ISL{A: cd.a, B: cd.b})
		taken++
		for _, cv := range cd.cov {
			res[cv.sample] *= 1 - cv.g
		}
	}
	return constellation.DedupISLs(isls)
}

// chordClearsFloor reports whether a link of worst-case chord length d
// between satellites at the shell's orbital radius clears demandMinAltKm at
// its lowest point.
func chordClearsFloor(sh constellation.Shell, d float64) bool {
	r := geo.EarthRadius + sh.AltitudeKm
	half := d / 2
	if half >= r {
		return false
	}
	return math.Sqrt(r*r-half*half)-geo.EarthRadius >= demandMinAltKm
}

// demandCoverage is one static candidate→sample contribution: g ∈ [0,1]
// combines corridor proximity (Gaussian in chord distance) with direction
// alignment (cos² between the link and the corridor tangent, so a link
// perpendicular to the traffic flow scores near zero even if it sits right
// on the corridor).
type demandCoverage struct {
	sample int
	g      float64
}

// demandCand is a candidate cross-plane link with its coverage list and a
// lazily refreshed marginal score.
type demandCand struct {
	score float64
	a, b  int
	cov   []demandCoverage
}

// candHeap is a max-heap over candidate links ordered by the motif's
// (score, tie-break) comparison.
type candHeap struct {
	cands []*demandCand
	less  func(x, y *demandCand) bool
}

func (h *candHeap) Len() int           { return len(h.cands) }
func (h *candHeap) Less(i, j int) bool { return h.less(h.cands[i], h.cands[j]) }
func (h *candHeap) Swap(i, j int)      { h.cands[i], h.cands[j] = h.cands[j], h.cands[i] }
func (h *candHeap) Push(x interface{}) { h.cands = append(h.cands, x.(*demandCand)) }
func (h *candHeap) Pop() interface{} {
	n := len(h.cands)
	c := h.cands[n-1]
	h.cands = h.cands[:n-1]
	return c
}
