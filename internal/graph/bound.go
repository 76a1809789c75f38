package graph

import (
	"math"
	"sync"

	"leosim/internal/geo"
)

// The free-space bound of a goal-directed search (DESIGN.md §7). No signal
// path between two points outside the Earth sphere is shorter than the taut
// string pulled around the planet between them (geo.MinFreeSpacePathKm), so
// that length at the speed of light bounds every remaining path delay to the
// goal from below, with no precomputation beyond a few per-node terms.

// boundSlack scales the bound down so that float rounding in the bound, in
// the search's accumulated distances and in its keys cannot make it
// inconsistent: a link weighs at least the free-space delay between its ends
// (its chord at c, or more for fiber), so every arc keeps a reduced cost of
// at least boundSlack of its weight, far above rounding at the delays a
// snapshot reaches.
const boundSlack = 1e-9

// boundMsPerKm converts a taut-string length in km to the bound in ms.
const boundMsPerKm = geo.MsPerKm * (1 - boundSlack)

// surfaceTolKm is how far below the sphere a node may sit and still count as
// on the surface: a terminal's ECEF position is R to within a few ulps.
const surfaceTolKm = 1e-6

// nodeTerm holds what the bound reads of one node besides its position: its
// distance from the Earth's centre, its tangent length sqrt(r² − R²) and its
// limb angle acos(R/r), the last two with r clamped to the surface — the
// per-node factors of geo.MinFreeSpacePathKm, computed by the same
// operations so the bound's length is that function's to the last bit.
type nodeTerm struct {
	r, tangent, limb float64
}

// nodeTerms is the lazily built nodeTerm of every node of one node array,
// shared by every network that shares the array. above reports whether every
// node lies on or above the surface, where the taut string is a metric.
type nodeTerms struct {
	once  sync.Once
	terms []nodeTerm
	above bool
}

// build computes the terms of pos once.
func (t *nodeTerms) build(pos []geo.Vec3) ([]nodeTerm, bool) {
	t.once.Do(func() {
		t.terms = make([]nodeTerm, len(pos))
		t.above = true
		for i, p := range pos {
			r := p.Norm()
			if r < geo.EarthRadius-surfaceTolKm {
				t.above = false
			}
			rc := math.Max(r, geo.EarthRadius)
			t.terms[i] = nodeTerm{
				r:       r,
				tangent: math.Sqrt(rc*rc - geo.EarthRadius*geo.EarthRadius),
				limb:    math.Acos(geo.EarthRadius / rc),
			}
		}
	})
	return t.terms, t.above
}

// nodeTermsOf returns the terms holder of n's node arrays, creating it on
// first use; concurrent first callers agree on one.
func (n *Network) nodeTermsOf() *nodeTerms {
	if t := n.terms.Load(); t != nil {
		return t
	}
	n.terms.CompareAndSwap(nil, &nodeTerms{})
	return n.terms.Load()
}

// States of Network.gate: whether the free-space bound may direct searches
// on the network's current links.
const (
	gateUnknown int32 = iota
	gateOpen
	gateClosed
)

// resetBound forgets the gate verdict and the tree rows' length, and with
// movedNodes the node terms too: the link set or weights changed, or
// (movedNodes) positions did.
func (n *Network) resetBound(movedNodes bool) {
	n.gate.Store(gateUnknown)
	n.rows.Store(0)
	if movedNodes {
		n.terms.Store(nil)
	}
}

// goalTerms returns the node terms when the free-space bound is admissible
// and consistent on n — every node on or above the surface, every link's
// weight positive and at least the bound between its ends — and nil
// otherwise. The verdict is taken once per CSR freeze.
func (n *Network) goalTerms() []nodeTerm {
	switch n.gate.Load() {
	case gateOpen:
		terms, _ := n.nodeTermsOf().build(n.Pos)
		return terms
	case gateClosed:
		return nil
	}
	n.csrMu.Lock()
	defer n.csrMu.Unlock()
	terms, above := n.nodeTermsOf().build(n.Pos)
	if n.gate.Load() == gateUnknown {
		verdict := gateOpen
		if !above {
			verdict = gateClosed
		}
		for i := 0; verdict == gateOpen && i < len(n.Links); i++ {
			l := n.Links[i]
			if !(l.OneWayMs > 0 && l.OneWayMs >= goalBound(n.Pos, terms, l.B).at(l.A)) {
				verdict = gateClosed
			}
		}
		n.gate.Store(verdict)
	}
	if n.gate.Load() == gateClosed {
		return nil
	}
	return terms
}

// boundTo is the free-space bound towards one goal node.
type boundTo struct {
	pos   []geo.Vec3
	terms []nodeTerm
	goal  geo.Vec3
	gt    nodeTerm
}

// goalBound returns the bound towards goal over pos and its terms.
func goalBound(pos []geo.Vec3, terms []nodeTerm, goal int32) boundTo {
	return boundTo{pos: pos, terms: terms, goal: pos[goal], gt: terms[goal]}
}

// at returns the bound in ms from node v to the goal:
// geo.MinFreeSpacePathKm(Pos[v], Pos[goal]) × boundMsPerKm, evaluated with
// the cached terms in that function's own operation order.
func (b boundTo) at(v int32) float64 {
	a, t := b.pos[v], b.terms[v]
	ab := b.goal.Sub(a)
	den := ab.Norm2()
	if den == 0 {
		return 0
	}
	chord := math.Sqrt(den)
	// geo.SegmentMinAltitudeKm: the straight segment clears the sphere.
	s := -a.Dot(ab) / den
	if s < 0 {
		s = 0
	} else if s > 1 {
		s = 1
	}
	if a.Add(ab.Scale(s)).Norm() >= geo.EarthRadius {
		return chord * boundMsPerKm
	}
	cos := a.Dot(b.goal) / (t.r * b.gt.r)
	if cos > 1 {
		cos = 1
	} else if cos < -1 {
		cos = -1
	}
	wrap := math.Acos(cos) - t.limb - b.gt.limb
	if wrap < 0 {
		return chord * boundMsPerKm
	}
	return (t.tangent + b.gt.tangent + geo.EarthRadius*wrap) * boundMsPerKm
}

// The tree bound of a goal-directed search (DESIGN.md §7, "A what-if's search
// is directed by its healthy tree"). A node's distance to the goal in a
// shortest-path tree of the unbanned network — SearchSpec.Tree — is its true
// distance there, so no banned search of the network finds a shorter one,
// and Dijkstra's own relaxation made it consistent: D(u) ≤ D(v) ⊕ w(u, v) on
// every link. Scaled by the same slack as the free-space bound, it leaves
// every arc the same margin.

// treeScale is the slack factor of the tree bound.
const treeScale = 1 - boundSlack

// directByTree makes tree, rooted at st.goal, the bound of the search begun
// on st.net.
func (st *SearchState) directByTree(tree []int32) {
	st.tree = tree
	if len(st.treeMemo) < len(tree) {
		st.treeMemo = append(st.treeMemo, make([]treeLabel, len(tree)-len(st.treeMemo))...)
	}
	st.treeMemo[st.goal] = treeLabel{dist: 0, stamp: st.searchStamp}
}

// directByBall makes ball, a plain search from st.goal, the bound of the
// overlay search begun on st.net (DESIGN.md §7, "A disjoint-path set is
// directed by its destination's ball"): its radius is the label of the pop
// that stopped it, +Inf if it ran to exhaustion.
func (st *SearchState) directByBall(ball *SearchState) {
	st.ball = ball
	st.radius = math.Inf(1)
	if ball.stop != NoTarget {
		st.radius = ball.node[ball.stop].dist
	}
}

// treeBound returns the tree bound from v to the goal, scaled by the slack.
// Directed by a ball it is min(D(v), R), read off the ball's own label in
// O(1); directed by st.tree, v's distance to the root in the tree
// (treeDist).
func (st *SearchState) treeBound(v int32) float64 {
	if b := st.ball; b != nil {
		d := st.radius
		if s := b.node[v]; s.stamp == b.searchStamp && s.dist < d {
			d = s.dist
		}
		return d * treeScale
	}
	return st.treeDist(v) * treeScale
}

// treeDist returns the distance from v, a node of the tree row st.tree, to
// its root, +Inf where the tree does not reach v. It is summed lazily: walk
// the row up from v to the first node memoised this search, then add the link
// delays back down in the tree's own order — d ⊕ w per link, and
// fl(fl(d + w₁) + w₂) over the two links of a tagged entry — which is the
// order Dijkstra summed them in when it grew the tree, and memoise every node
// passed. So each node is measured at most once per search, and what it is
// measured at is the tree's own float distance. A forwarder past the row is
// never asked for: a tree-directed search relaxes it through.
func (st *SearchState) treeDist(v int32) float64 {
	n, tree, memo, cur := st.net, st.tree, st.treeMemo, st.searchStamp
	links := n.Links
	walk := st.treeWalk[:0]
	at := v
	for memo[at].stamp != cur {
		if tree[at] == -1 { // off the tree: no path to the goal at all
			memo[at] = treeLabel{dist: math.Inf(1), stamp: cur}
			break
		}
		if len(walk) == len(tree) {
			panic("graph: SearchSpec.Tree has a cycle")
		}
		walk = append(walk, at)
		at, _ = n.RowParent(tree, at)
	}
	d := memo[at].dist
	for i := len(walk) - 1; i >= 0; i-- {
		u := walk[i]
		if e := tree[u]; e >= 0 {
			d += links[e].OneWayMs
		} else {
			l1, rv := n.rowHop(tree, u)
			d += links[l1].OneWayMs
			d += links[rv].OneWayMs
		}
		memo[u] = treeLabel{dist: d, stamp: cur}
	}
	st.treeWalk = walk
	return memo[v].dist
}
