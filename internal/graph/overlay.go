package graph

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"leosim/internal/safe"
	"leosim/internal/telemetry"
)

// The relay overlay (DESIGN.md §7, "A fan-out searches the relay overlay").
// Relays and aircraft only forward: in a built network every one of them joins
// satellites to satellites, so what a search learns from one is the label it
// hands each of its satellites. The overlay keeps the nodes that can branch —
// satellites and cities, the prefix [0, NumSat+NumCity) of a built network —
// and replaces each forwarder by the arcs it makes between its satellites.
// Searching it pops the same nodes in the same order at the same labels as the
// CSR kernel, so every answer is the CSR kernel's, bit for bit.

// overlayArc is one arc of the overlay out of a node u: either a direct link
// of u (pre 0) or one candidate forwarder r of a satellite pair, u–r weighing
// pre and r–to weighing ms. Relaxing it from label g offers to the label
// fl(fl(g + pre) + ms), the sum the CSR kernel forms through r, and link is
// the link into to (u–to, or r–to), so prevLink and its holder's node read as
// the CSR's.
type overlayArc struct {
	pre, ms  float64
	to, link int32
}

// The overlay's exactness rests on three bounds (DESIGN.md §7). Every link it
// reads weighs between overlayMinMs and overlayMaxMs, and a search on it pops
// no label above overlayLabelCap (past it the CSR answers), so every sum a
// relaxation forms stays below M = 2¹⁷ ms, where adding a weight always
// raises a label and each of the two roundings of fl(fl(g + pre) + ms) is at
// most 2⁻⁵³·M. A candidate whose sum exceeds its pair's least by more than
// overlayCandidateTol = 16·2⁻⁵³·M therefore offers a strictly larger label
// than the least one does from every label below the cap, and is dropped.
const (
	overlayMinMs        = 0x1p-30
	overlayMaxMs        = 0x1p14
	overlayLabelCap     = 0x1p16
	overlayCandidateTol = 0x1p-32
)

// Overlay is the relay-contracted search graph of one network: its satellites
// and cities joined by their direct links and by one arc per candidate relay
// or aircraft between two satellites (overlayArc). It is built for one fan-out
// of searches — core's per-source pair fan-out, an oracle build — shared by
// its workers read-only, and dropped when the fan-out ends; no network
// caches one. Build it with NewOverlay and search through Search.
type Overlay struct {
	net *Network
	// n is the overlay's node count, NumSat+NumCity; 0 when the network does
	// not admit an overlay and Search is the CSR kernel's.
	n int32
	// Node u's arcs are arcs[start[u]:start[u+1]]: its direct links in CSR
	// order, arcs[start[u]:direct[u]], then a satellite's candidates. via[i]
	// is arcs[i]'s u–r link, the one link of a candidate that the arc does
	// not name (a direct link's own): only a banned search reads it.
	start, direct []int32
	arcs          []overlayArc
	via           []int32
	// parts holds, while a build runs, the candidates of its ranges of
	// satellites (gather), under mu. The build drops them: an overlay keeps
	// only what its searches read.
	mu    sync.Mutex
	parts []buildPart
}

// buildPart holds the candidates gather kept for the satellites from lo on.
type buildPart struct {
	lo    int32
	pairs []candidate
}

// candidate is a forwarder r between satellites u < t: the arc u–r is
// adjEdges[k] on u's CSR row, the arc r–t adjEdges[j] on r's.
type candidate struct {
	u, k, j int32
}

// leastSum is the least candidate sum towards one satellite among the
// candidates of the overlay row it was last written for (row is that node
// plus one).
type leastSum struct {
	sum float64
	row int32
}

// overlayMinSearches is the fewest searches a fan-out must run for
// NewOverlay to build: a reduced build costs what 7 to 15 searches save
// by running on the overlay instead of the CSR (DESIGN.md §7).
const overlayMinSearches = 16

// NewOverlay builds the overlay of n for a fan-out of searches searches. It
// is empty, and Search runs the CSR kernel, where fewer searches cannot pay
// back the build, and where n admits no overlay: no relay or aircraft, a
// forwarder with a neighbour that is not a satellite, a node kind out of the
// Builder's layout, a link weight outside the bounds above. It is not pooled:
// its memory goes with the fan-out.
func NewOverlay(n *Network, searches int) *Overlay {
	ov := &Overlay{net: n}
	if searches >= overlayMinSearches {
		ov.build()
	}
	return ov
}

// build fills the overlay of ov.net, and leaves ov.n 0 where it admits none.
// It checks every arc weight, node kind and forwarder's and city's row and
// counts the direct links, then gathers the candidates of ranges of satellites
// in parallel (gather), and lays the arcs out in node order: each node's
// direct links in CSR order, then its candidates, range by range.
func (ov *Overlay) build() {
	n := ov.net
	n.ensureCSR()
	ns, on := int32(n.NumSat), int32(n.NumSat+n.NumCity)
	if n.NumSat < 0 || n.NumCity < 0 || int(on) >= n.N() {
		return
	}
	adjStart, adjEdges, adjMs := n.adjStart, n.adjEdges, n.adjMs
	for _, w := range adjMs {
		if !(w >= overlayMinMs && w <= overlayMaxMs) {
			return
		}
	}
	// A forwarder's row lists its satellites in ascending order wherever the
	// Builder made it; then the candidates t > u of a row u are a suffix.
	ok, ascending, _ := n.forwarding()
	if !ok {
		return
	}
	for v, k := range n.Kind { // SatTransit reads the kind, the overlay the index
		if (k == NodeSatellite) != (int32(v) < ns) {
			return
		}
	}
	// count[u+2] first counts u's arcs, then the prefix sum makes count[u+1]
	// u's first slot, which the fill advances to u's last plus one: u+1's
	// first. So the filled count[:on+1] is start.
	count := make([]int32, on+2)
	for u := int32(0); u < on; u++ {
		for _, e := range adjEdges[adjStart[u]:adjStart[u+1]] {
			if e.To < on {
				count[u+2]++
			} else if u >= ns { // a city joined to a forwarder
				return
			}
		}
	}
	ov.n = on
	safe.Chunks(int(ns), func(lo, hi int) { ov.gather(int32(lo), int32(hi), ascending) })
	parts := ov.parts
	slices.SortFunc(parts, func(a, b buildPart) int { return cmp.Compare(a.lo, b.lo) })
	for _, part := range parts {
		for _, c := range part.pairs {
			count[c.u+2]++
			count[adjEdges[c.j].To+2]++
		}
	}
	for u := int32(2); u < on+2; u++ {
		count[u] += count[u-1]
	}
	arcs := make([]overlayArc, count[on+1])
	via := make([]int32, len(arcs))
	next := count[1:]
	for u := int32(0); u < on; u++ {
		for k := adjStart[u]; k < adjStart[u+1]; k++ {
			if e := adjEdges[k]; e.To < on {
				arcs[next[u]] = overlayArc{ms: adjMs[k], to: e.To, link: e.Link}
				via[next[u]] = e.Link
				next[u]++
			}
		}
	}
	direct := slices.Clone(next[:on])
	for _, part := range parts {
		for _, c := range part.pairs {
			eu, et := adjEdges[c.k], adjEdges[c.j]
			wu, wt := adjMs[c.k], adjMs[c.j]
			arcs[next[c.u]] = overlayArc{pre: wu, ms: wt, to: et.To, link: et.Link}
			via[next[c.u]] = eu.Link
			next[c.u]++
			arcs[next[et.To]] = overlayArc{pre: wt, ms: wu, to: c.u, link: eu.Link}
			via[next[et.To]] = et.Link
			next[et.To]++
		}
	}
	ov.start, ov.direct, ov.arcs, ov.via, ov.parts = count[:on+1], direct, arcs, via, nil
}

// gather adds to the build's parts the candidates of satellites [lo, hi).
// For satellite u, every forwarder r on its row and every satellite t > u on
// r's row is a candidate of the pair {u, t}, whose least sum a dense
// per-satellite scratch keeps while the candidates not already past it wait
// in a row; those within overlayCandidateTol of the least are the pair's. A pair's candidates serve both its arcs, u → t through r–t and
// t → u through r–u, since fl(w₁ + w₂) = fl(w₂ + w₁).
func (ov *Overlay) gather(lo, hi int32, ascending bool) {
	n := ov.net
	ns := int32(n.NumSat)
	adjStart, adjEdges, adjMs := n.adjStart, n.adjEdges, n.adjMs
	least := make([]leastSum, ns)
	var pairs, row []candidate
	for u := lo; u < hi; u++ {
		for k := adjStart[u]; k < adjStart[u+1]; k++ {
			r := adjEdges[k].To
			if r < ov.n {
				continue
			}
			w := adjMs[k]
			for j := adjStart[r+1] - 1; j >= adjStart[r]; j-- {
				t := adjEdges[j].To
				if t <= u {
					if ascending {
						break
					}
					continue
				}
				s, l := w+adjMs[j], &least[t]
				if l.row != u+1 || s < l.sum {
					*l = leastSum{sum: s, row: u + 1}
				} else if s > l.sum+overlayCandidateTol {
					continue
				}
				row = append(row, candidate{u: u, k: k, j: j})
			}
		}
		for _, c := range row {
			if t := adjEdges[c.j].To; adjMs[c.k]+adjMs[c.j] <= least[t].sum+overlayCandidateTol {
				pairs = append(pairs, c)
			}
		}
		row = row[:0]
	}
	ov.mu.Lock()
	ov.parts = append(ov.parts, buildPart{lo: lo, pairs: pairs})
	ov.mu.Unlock()
}

// Search runs spec over the overlay into st, as Network.Search would over the
// network's CSR, and with the same answers for every node: the satellites' and
// cities' labels are the search's own, and a relay's or aircraft's Dist,
// Reached, PrevLink and Path are derived from its satellites
// (SearchState.forwarder). Only a search of an overlay node — no Cost, Tree or
// Stop, every wanted node a satellite or city — runs on the overlay,
// SatTransit or not, and st's link bans or not; any other, and any on an
// empty overlay, is Network.Search's. Like Network.Search it is goal-directed
// where spec wants one node and is not plain: by spec.ball where it is given
// its target's ball, by the free-space bound otherwise, where that gate is
// open. A search the CSR runs instead (a label past overlayLabelCap) reads no
// ball: the free-space bound directs it.
func (ov *Overlay) Search(st *SearchState, spec SearchSpec) bool {
	if ov.admits(spec) {
		sp := telemetry.StartStageSpan(telemetry.StageSearch)
		done := ov.search(st, spec)
		sp.End()
		if done {
			return true
		}
	}
	return ov.net.Search(st, spec)
}

// admits reports whether spec may run on the overlay.
func (ov *Overlay) admits(spec SearchSpec) bool {
	if ov.n == 0 || spec.Cost != nil || spec.Tree != nil || spec.Stop != nil {
		return false
	}
	in := func(v int32) bool { return v >= 0 && v < ov.n }
	if !in(spec.Src) || (spec.Target != NoTarget && !in(spec.Target)) {
		return false
	}
	for _, v := range spec.Targets {
		if !in(v) {
			return false
		}
	}
	return true
}

// overlayTakes is the (dist, node, link) tie rule at an overlay arc: whether
// an offer to v through link li, from a holder labelled mid, beats v's holder,
// labelled held when it took v through link prev. Each holder is the far end
// of its link from v — a satellite or city, or the relay of a candidate.
func overlayTakes(links []Link, v int32, mid float64, li int32, held float64, prev int32) bool {
	if mid != held {
		return mid < held
	}
	l, pl := links[li], links[prev]
	u, p := l.A+l.B-v, pl.A+pl.B-v
	return u < p || (u == p && li < prev)
}

// search is the kernel's loop (Network.search, relaxing ground nodes through)
// over the overlay's arcs: a popped node relaxes its direct links and its
// candidates, and a city that is not wanted is relaxed through. Under
// SatTransit no forwarder forwards, so a satellite relaxes its direct links
// only and a city but the source relaxes nothing. A ball-directed search keys
// by the ball's bound (treeBound) and queues its cities: passed, a city would
// relax all its links however far its key lies past the target's. Under link
// bans an arc is skipped when either of its links is banned (link, and via
// for a candidate), and each pair of a popped satellite whose kept candidate
// a ban cut is repaired: after the satellite's row the loop relaxes the arcs
// repair derives for it (DESIGN.md §7, "A banned search on the overlay"). It
// returns false, with st unusable, at the first pop past overlayLabelCap.
func (ov *Overlay) search(st *SearchState, spec SearchSpec) bool {
	n := ov.net
	wantLeft, only := st.begin(n, spec)
	st.split = ov.n
	if len(st.held) < int(ov.n) {
		st.held = append(st.held, make([]float64, int(ov.n)-len(st.held))...)
	}
	st.goal, st.tree, st.ball = NoTarget, nil, nil
	if wantLeft == 1 && !spec.plain {
		if terms := n.goalTerms(); terms != nil {
			st.goal = only
			if b := spec.ball; b != nil && b.net == n && b.src == only {
				st.directByBall(b)
			} else {
				st.toGoal = goalBound(n.Pos, terms, only)
			}
		}
	}
	goal, byBall := st.goal != NoTarget, st.ball != nil
	node, cur, want := st.node, st.searchStamp, st.want
	prevLink, held := st.prevLink, st.held
	start, direct, arcs, links := ov.start, ov.direct, ov.arcs, n.Links
	ground := int32(n.NumSat)
	transit := spec.SatTransit
	bans, ban, stamp := st.anyLinkBan, st.linkBan, st.banStamp
	bound := func(v int32) float64 { // v's bound to the goal
		if byBall {
			return st.treeBound(v)
		}
		return st.toGoal.at(v)
	}

	node[spec.Src] = nodeState{stamp: cur}
	prevLink[spec.Src] = -1
	var key float64
	if goal {
		key = bound(spec.Src)
	}
	st.bound[spec.Src] = key
	h := append(st.heap, heapEntry{node: spec.Src, key: key})
	relaxed := 0
	for len(h) > 0 {
		u := h[0].node
		node[u].pos = posPopped
		g := node[u].dist
		if g > overlayLabelCap {
			st.heap = h[:0]
			return false
		}
		last := len(h) - 1
		tail := h[last]
		h = h[:last]
		if last > 0 {
			siftDown(h, node, tail)
		}
		if wantLeft > 0 && want[u] == cur {
			if wantLeft--; wantLeft == 0 {
				st.stop = u
				break
			}
		}
		end := start[u+1]
		if transit {
			if u >= ground && u != spec.Src {
				continue
			}
			end = direct[u]
		}
		relaxed += int(end - start[u])
		row := arcs[start[u]:end]
		if bans {
			row = ov.unbanned(st, u, end)
		}
		for {
			for _, a := range row {
				mid := g + a.pre
				nd := mid + a.ms
				v := a.to
				to := &node[v]
				queued := false
				if to.stamp == cur {
					if nd > to.dist || to.pos == posPopped {
						continue
					}
					if nd == to.dist {
						if overlayTakes(links, v, mid, a.link, held[v], prevLink[v]) {
							prevLink[v], held[v] = a.link, mid
						}
						continue
					}
					queued = to.pos >= 0
				} else {
					to.stamp = cur
				}
				to.dist = nd
				prevLink[v], held[v] = a.link, mid
				if !queued && !byBall && v >= ground && want[v] != cur {
					// Relax city v through. Its arcs are all direct links
					// (pre 0): the build refuses a city joined to a forwarder.
					// This is the loop above without the pass, written out
					// again: resuming u's row instead, as Network.search
					// does, made sweep-fig4 13–18 % slower (DESIGN.md §7).
					to.pos = posPassed
					if transit {
						continue
					}
					vrow := arcs[start[v]:start[v+1]]
					relaxed += len(vrow)
					for _, f := range vrow {
						if bans && ban[f.link] == stamp {
							continue
						}
						nx := nd + f.ms
						y := f.to
						ty := &node[y]
						yQueued := false
						if ty.stamp == cur {
							if nx > ty.dist || ty.pos == posPopped {
								continue
							}
							if nx == ty.dist {
								if overlayTakes(links, y, nd, f.link, held[y], prevLink[y]) {
									prevLink[y], held[y] = f.link, nd
								}
								continue
							}
							yQueued = ty.pos >= 0
						} else {
							ty.stamp = cur
						}
						ty.dist = nx
						prevLink[y], held[y] = f.link, nd
						at := int(ty.pos)
						if !yQueued {
							at = len(h)
							h = append(h, heapEntry{})
							if goal {
								st.bound[y] = bound(y)
							}
						}
						key = nx
						if goal {
							key += st.bound[y]
						}
						siftUp(h, node, at, heapEntry{node: y, key: key})
					}
					continue
				}
				pos := int(to.pos)
				if !queued {
					pos = len(h)
					h = append(h, heapEntry{})
					if goal {
						st.bound[v] = bound(v)
					}
				}
				key = nd
				if goal {
					key += st.bound[v]
				}
				siftUp(h, node, pos, heapEntry{node: v, key: key})
			}
			if len(st.cutTo) == 0 {
				break
			}
			row = ov.repair(st, u)
			relaxed += len(row)
		}
	}
	st.heap = h
	st.relaxed = relaxed
	return true
}

// unbanned returns the arcs of u's row, arcs[start[u]:end], that st's bans
// leave: the row itself where none of them is banned, else a copy in
// st.arcBuf without the banned ones. The far end of each candidate a ban cut
// goes on st.cutTo, for repair.
func (ov *Overlay) unbanned(st *SearchState, u, end int32) []overlayArc {
	ban, stamp, arcs, via := st.linkBan, st.banStamp, ov.arcs, ov.via
	from, cut := ov.start[u], false
	for i := from; i < end; i++ {
		a := arcs[i]
		if ban[a.link] != stamp && ban[via[i]] != stamp {
			if cut {
				st.arcBuf = append(st.arcBuf, a)
			}
			continue
		}
		if !cut {
			st.arcBuf, cut = append(st.arcBuf[:0], arcs[from:i]...), true
		}
		if i >= ov.direct[u] {
			st.cutTo = append(st.cutTo, a.to)
		}
	}
	if !cut {
		return arcs[from:end]
	}
	return st.arcBuf
}

// repair returns in st.arcBuf, for satellite u just popped, the arcs that
// repair each pair {u, t} whose kept candidate a ban cut (t in st.cutTo), and
// empties the list: one arc through every forwarder r the two share over
// unbanned links, as the CSR kernel relaxes r from u and r through to t — the
// pair's kept candidates and those the build dropped, of which one may now be
// t's best. Of parallel u–r links only the lightest unbanned one gives r a
// label, so it alone is read. It walks u's row once and each t's row once; a
// t already settled is skipped.
func (ov *Overlay) repair(st *SearchState, u int32) []overlayArc {
	n := ov.net
	adjStart, adjEdges, adjMs := n.adjStart, n.adjEdges, n.adjMs
	ban, stamp := st.linkBan, st.banStamp
	if len(st.mark) < n.N() {
		st.mark = append(st.mark, make([]repairMark, n.N()-len(st.mark))...)
	}
	st.markStamp++
	if st.markStamp == 0 { // wrapped: stale stamps could collide
		clear(st.mark)
		st.markStamp = 1
	}
	mark, cur := st.mark, st.markStamp
	for k := adjStart[u]; k < adjStart[u+1]; k++ {
		r := adjEdges[k].To
		if r < ov.n || ban[adjEdges[k].Link] == stamp {
			continue
		}
		if m := &mark[r]; m.stamp != cur || adjMs[k] < adjMs[m.k] {
			*m = repairMark{stamp: cur, k: k}
		}
	}
	st.arcBuf = st.arcBuf[:0]
	for _, t := range st.cutTo {
		if mark[t].stamp == cur || st.Settled(t) { // listed twice, or final
			continue
		}
		mark[t].stamp = cur
		for j := adjStart[t]; j < adjStart[t+1]; j++ {
			e := adjEdges[j]
			if e.To < ov.n || mark[e.To].stamp != cur || ban[e.Link] == stamp {
				continue
			}
			st.arcBuf = append(st.arcBuf, overlayArc{pre: adjMs[mark[e.To].k], ms: adjMs[j], to: t, link: e.Link})
		}
	}
	st.cutTo = st.cutTo[:0]
	return st.arcBuf
}

// repairMark marks, for one repair, a forwarder r of the popped satellite
// with k, the index of its lightest unbanned link to r on the satellite's
// CSR row, or a partner satellite already repaired.
type repairMark struct {
	stamp uint32
	k     int32
}

// forwarder derives the labels of node v, a relay or aircraft the last search
// ran the overlay past (SearchState.split): the CSR kernel relaxes v from each
// of its satellites as that satellite pops — unless the pop ends the search —
// and from nothing else, keeping the least sum and, among equal sums, the
// (dist, node, link)-least satellite. So v is reached iff a satellite of v
// popped and relaxed, at the least fl(d(s) + w) over those, through that
// satellite's link — a link st does not ban.
func (st *SearchState) forwarder(v int32) (dist float64, link int32) {
	n := st.net
	node, cur := st.node, st.searchStamp
	dist, link = math.Inf(1), -1
	var held float64
	var p int32
	for k := n.adjStart[v]; k < n.adjStart[v+1]; k++ {
		e := n.adjEdges[k]
		s := node[e.To]
		if s.stamp != cur || s.pos != posPopped || e.To == st.stop ||
			(st.anyLinkBan && st.linkBan[e.Link] == st.banStamp) {
			continue
		}
		if d := s.dist + n.adjMs[k]; link < 0 || d < dist ||
			(d == dist && (s.dist < held || (s.dist == held && (e.To < p || (e.To == p && e.Link < link))))) {
			dist, link, held, p = d, e.Link, s.dist, e.To
		}
	}
	return dist, link
}
