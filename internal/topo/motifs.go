package topo

import (
	"sort"
	"time"

	"leosim/internal/constellation"
	"leosim/internal/geo"
)

// plusGridMotif is the paper's +Grid behind the Motif interface. It delegates
// to constellation.PlusGridISLs, whose output (content and order) is pinned
// byte-identical to the pre-refactor generator by the regression tests in
// this package.
type plusGridMotif struct{}

func (plusGridMotif) Links(c *constellation.Constellation) []constellation.ISL {
	return constellation.PlusGridISLs(c, false)
}

// diagGridMotif is the +Grid with every cross-plane link shifted by one
// slot: satellite (plane p, slot j) links to (p+1, j+1). With the
// +Grid, an inter-plane hop makes no along-track progress; the diagonal
// variant folds one slot of along-track advance into every plane change,
// shortening zigzag routes on diagonal corridors (arXiv:2005.07965). Degree
// and link count match the +Grid exactly, so comparisons are at equal
// hardware cost. Seam handling is the +Grid's: delta shells wrap with the
// extra WalkerF phasing shift, star shells never wrap.
type diagGridMotif struct{}

func (diagGridMotif) Links(c *constellation.Constellation) []constellation.ISL {
	return constellation.GridISLs(c, 1, false)
}

// ladderMotif keeps only the intra-plane rings: 2 ISLs per satellite, the
// cheapest bus that still gets any use out of lasers. Along-track neighbours
// are the most stable links a satellite can hold (constant range, no
// pointing slew), so a ring-only bus needs the least terminal hardware;
// cross-plane traffic must bounce through the ground segment.
type ladderMotif struct{}

func (ladderMotif) Links(c *constellation.Constellation) []constellation.ISL {
	return constellation.DedupISLs(planeRing(c, nil))
}

// nearestMotif augments the intra-plane rings with a greedy minimum-distance
// inter-plane matching, recomputed per snapshot epoch: every cross-plane pair
// of one shell is a candidate, candidates are taken in instantaneous-range
// order, and a satellite accepts at most two — the +Grid's degree-4 bus, but
// pointed at whatever happens to be closest. Unlike an adjacent-plane
// matching (which the Walker symmetry pins to the same slots forever, i.e.
// the +Grid itself), the free plane choice follows the orbit-crossing
// geometry: near the turning latitudes the nearest neighbour sits several
// planes over, and the matching evolves as the shell sweeps
// (arXiv:2005.07965).
type nearestMotif struct{}

// nearestInterCap is the inter-plane terminal count per satellite (plus the
// two ring terminals: degree ≤ 4, the +Grid bus).
const nearestInterCap = 2

func (m nearestMotif) Links(c *constellation.Constellation) []constellation.ISL {
	return m.LinksAt(c, geo.Epoch)
}

func (nearestMotif) LinksAt(c *constellation.Constellation, t time.Time) []constellation.ISL {
	pos := c.PositionsECEF(t)
	isls := planeRing(c, nil)
	type cand struct {
		d2   float64
		a, b int
	}
	var cands []cand
	for si, sh := range c.Shells {
		if sh.Planes < 2 {
			continue
		}
		lo := c.SatIndex(si, 0, 0)
		hi := lo + sh.Planes*sh.SatsPerPlane
		// Candidates further than twice the same-slot adjacent-plane
		// spacing can never win a terminal — pruning them keeps the sort
		// linear in practice.
		ref := pos[c.SatIndex(si, 0, 0)].Sub(pos[c.SatIndex(si, 1, 0)]).Norm2()
		cut := 4 * ref
		for a := lo; a < hi; a++ {
			pa := c.Sats[a].Plane
			for b := a + 1; b < hi; b++ {
				pb := c.Sats[b].Plane
				if pb == pa {
					continue
				}
				// Star shells have a physical seam: the first and last
				// planes counter-rotate, so a laser could not track across
				// (see constellation.PlusGridISLs).
				if !wrapsSeam(sh) && ((pa == 0 && pb == sh.Planes-1) || (pb == 0 && pa == sh.Planes-1)) {
					continue
				}
				d2 := pos[a].Sub(pos[b]).Norm2()
				if d2 > cut {
					continue
				}
				cands = append(cands, cand{d2: d2, a: a, b: b})
			}
		}
	}
	// Range ties (symmetric geometries) break on satellite indices so the
	// matching is deterministic.
	sort.Slice(cands, func(x, y int) bool {
		if cands[x].d2 != cands[y].d2 {
			return cands[x].d2 < cands[y].d2
		}
		if cands[x].a != cands[y].a {
			return cands[x].a < cands[y].a
		}
		return cands[x].b < cands[y].b
	})
	deg := make(map[int]int)
	for _, cd := range cands {
		if deg[cd.a] >= nearestInterCap || deg[cd.b] >= nearestInterCap {
			continue
		}
		deg[cd.a]++
		deg[cd.b]++
		isls = append(isls, constellation.OrderISL(cd.a, cd.b))
	}
	return constellation.DedupISLs(isls)
}
