package graph

import (
	"math"
	"sync"

	"leosim/internal/telemetry"
)

// SearchState is the reusable scratch memory of one shortest-path search:
// per-node labels, the frontier heap with its per-node position index, and
// an epoch-stamped link ban mask. Acquire one with AcquireSearch, run any
// number of searches on a single network through Network.Search, and Release
// it when done; the allocation-free inner loop is what lets experiment sweeps
// run millions of searches without touching the garbage collector.
//
// A SearchState is not safe for concurrent use; acquire one per worker. It
// must be used with one network at a time — AcquireSearch clears the ban mask,
// so reusing a pooled state on a different network is safe after Acquire.
type SearchState struct {
	net *Network
	src int32

	// node[v] and prevLink[v] are valid iff node[v].stamp == searchStamp;
	// stamping replaces the O(n) "fill with +Inf" re-initialization.
	node     []nodeState
	prevLink []int32

	// heap is the frontier: exactly one entry per queued, not yet popped
	// node. node[v].pos is v's index in heap while it is queued, posPopped
	// from the moment it is popped and posPassed while it is relaxed through
	// without a heap entry, so heap[node[v].pos].node == v for every queued
	// v — the invariant decrease-key relies on.
	heap []heapEntry

	// linkBan marks a link banned iff the entry equals banStamp. Bans
	// persist across searches (KDisjointPaths accumulates them) until
	// ClearBans bumps the stamp — no map, no clearing loop. anyLinkBan is
	// set by BanLink and reset by ClearBans; while it is false the relax
	// loop skips the per-arc mask load altogether.
	linkBan    []uint32
	anyLinkBan bool

	// want[v] == searchStamp marks v as a node the current search stops
	// for (SearchSpec.Target/Targets) — stamped like node, never cleared.
	want []uint32

	// goal is the one node a goal-directed search heads for (NoTarget: the
	// search was plain Dijkstra), toGoal the free-space bound towards it, and
	// bound[v] v's bound, valid while v is reached this epoch. tree is the
	// goal's SearchSpec.Tree when that row directs the search instead (nil:
	// the free-space bound does); treeMemo[v] memoises v's distance to the
	// goal in it, valid iff its stamp is searchStamp, and treeWalk is the
	// scratch of the walk that fills it. ball is the stopped plain search
	// from the goal that directs an overlay search in place of either
	// (KDisjointPathsTo), and radius the label of its last pop (+Inf: it ran
	// to exhaustion).
	goal     int32
	toGoal   boundTo
	bound    []float64
	tree     []int32
	treeMemo []treeLabel
	treeWalk []int32
	ball     *SearchState
	radius   float64

	searchStamp uint32
	banStamp    uint32

	// split is the node count of the overlay the last search ran on, 0 after
	// a CSR search: nodes at or above it were not searched, and their labels
	// are derived from their satellites (forwarder). stop is the wanted node
	// whose pop ended that search, which relaxed nothing (NoTarget: the
	// search ran to exhaustion). held[v] is the label of v's holder — the
	// node at the far end of prevLink[v] — when it took v, what an overlay
	// search's tie rule compares.
	split int32
	stop  int32
	held  []float64

	// relaxed counts the arcs the last overlay search relaxed, its pops' and
	// its passes' rows.
	relaxed int

	// cutTo lists the satellites whose pair with the node a banned overlay
	// search just popped lost a kept candidate to a ban, and mark, valid
	// where its stamp is markStamp, is the scratch that repairs them
	// (Overlay.repair). arcBuf holds the arcs such a search relaxes in place
	// of a row: its unbanned ones (Overlay.unbanned), then repair's.
	cutTo     []int32
	mark      []repairMark
	markStamp uint32
	arcBuf    []overlayArc
}

// nodeState packs what relaxing an arc into node v reads — is v reached this
// epoch, at what distance, and where in the heap — into one 16-byte record,
// so the test touches one cache line instead of three arrays.
type nodeState struct {
	dist  float64
	stamp uint32
	pos   int32
}

// treeLabel is one node's memoised distance to the goal in SearchSpec.Tree.
type treeLabel struct {
	dist  float64
	stamp uint32
}

// posPopped marks a node that has left the frontier for good; posPassed a
// node relaxed through, reached but never queued (Search).
const (
	posPopped int32 = -1
	posPassed int32 = -2
)

var searchPool = sync.Pool{New: func() interface{} { return &SearchState{} }}

// AcquireSearch returns a pooled SearchState with no bans set.
func AcquireSearch() *SearchState {
	st := searchPool.Get().(*SearchState)
	st.ClearBans()
	return st
}

// Release returns the state to the pool. The state must not be used (nor any
// value read from it) after Release.
func (st *SearchState) Release() {
	st.net = nil
	st.toGoal = boundTo{}
	st.tree, st.ball = nil, nil
	searchPool.Put(st)
}

// grow sizes the scratch arrays for a graph with nodes nodes and links
// links. Freshly grown regions hold zero stamps, which never match the
// current stamps (always ≥ 1), so grown entries start unreached/unbanned.
func (st *SearchState) grow(nodes, links int) {
	if len(st.node) < nodes {
		st.node = append(st.node, make([]nodeState, nodes-len(st.node))...)
		st.prevLink = append(st.prevLink, make([]int32, nodes-len(st.prevLink))...)
		st.want = append(st.want, make([]uint32, nodes-len(st.want))...)
		st.bound = append(st.bound, make([]float64, nodes-len(st.bound))...)
	}
	if len(st.linkBan) < links {
		st.linkBan = append(st.linkBan, make([]uint32, links-len(st.linkBan))...)
	}
}

// begin starts a new search epoch on network n and marks the nodes spec
// wants, returning how many distinct ones there are and the last one marked.
func (st *SearchState) begin(n *Network, spec SearchSpec) (wanted int, last int32) {
	st.net = n
	st.src = spec.Src
	st.split, st.stop = 0, NoTarget
	st.grow(n.N(), len(n.Links))
	st.searchStamp++
	if st.searchStamp == 0 { // wrapped: stale stamps could collide
		for i := range st.node {
			st.node[i].stamp = 0
			st.want[i] = 0
		}
		for i := range st.treeMemo {
			st.treeMemo[i].stamp = 0
		}
		st.searchStamp = 1
	}
	st.heap = st.heap[:0]
	mark := func(v int32) {
		if st.want[v] != st.searchStamp { // a node listed twice counts once
			st.want[v] = st.searchStamp
			wanted++
			last = v
		}
	}
	if spec.Target != NoTarget {
		mark(spec.Target)
	}
	for _, v := range spec.Targets {
		mark(v)
	}
	return wanted, last
}

// ClearBans forgets every banned link.
func (st *SearchState) ClearBans() {
	st.anyLinkBan = false
	st.banStamp++
	if st.banStamp == 0 { // wrapped: stale stamps could collide
		for i := range st.linkBan {
			st.linkBan[i] = 0
		}
		st.banStamp = 1
	}
}

// BanLink excludes link li from subsequent searches (until ClearBans).
func (st *SearchState) BanLink(li int32) {
	if int(li) >= len(st.linkBan) {
		st.linkBan = append(st.linkBan, make([]uint32, int(li)+1-len(st.linkBan))...)
	}
	st.linkBan[li] = st.banStamp
	st.anyLinkBan = true
}

// Dist returns the settled distance of node v from the last search's source
// (+Inf if unreached). Under a Cost hook this is total cost, not delay.
func (st *SearchState) Dist(v int32) float64 {
	if st.split > 0 && v >= st.split {
		d, _ := st.forwarder(v)
		return d
	}
	if st.node[v].stamp != st.searchStamp {
		return math.Inf(1)
	}
	return st.node[v].dist
}

// Reached reports whether the last search reached node v: gave it a label,
// whether it then queued or was relaxed through.
func (st *SearchState) Reached(v int32) bool {
	if st.split > 0 && v >= st.split {
		_, li := st.forwarder(v)
		return li >= 0
	}
	return st.node[v].stamp == st.searchStamp
}

// Settled reports whether the last search popped node v, making its labels
// final. A node relaxed through (Search) never queues, so it is reached but
// never settled; in a search that runs to completion its labels are final
// all the same. A search stopped at its targets leaves the nodes past them
// reached but unsettled, or unreached.
func (st *SearchState) Settled(v int32) bool {
	return st.node[v].stamp == st.searchStamp && st.node[v].pos == posPopped
}

// settled counts the nodes the last search popped.
func (st *SearchState) settled() (c int) {
	for v := range int32(st.net.N()) {
		if st.Settled(v) {
			c++
		}
	}
	return c
}

// PrevLink returns the predecessor link of node v in the last search (-1 at
// the source or if unreached).
func (st *SearchState) PrevLink(v int32) int32 {
	if st.split > 0 && v >= st.split {
		_, li := st.forwarder(v)
		return li
	}
	if st.node[v].stamp != st.searchStamp {
		return -1
	}
	return st.prevLink[v]
}

// Path reconstructs the found route from the last search's source to dst,
// ok false where the search did not reach dst. It weighs the sum of its link
// delays, which is Dist(dst) bit for bit unless a Cost hook priced the search
// (DESIGN.md §7, "A path is its links").
func (st *SearchState) Path(dst int32) (Path, bool) {
	return st.net.walk(st.src, dst, func(v int32) (int32, int32) { return st.PrevLink(v), -1 })
}

// heapEntry is one frontier node in the priority queue. Entries are plain
// values in a flat slice — no interface boxing, no per-push allocation — and
// carry their key, so sift comparisons never leave the heap's own memory.
// The key is the node's tentative distance, plus its bound (free-space or
// tree) in a goal-directed search.
type heapEntry struct {
	node int32
	key  float64
}

// heapLess orders by (key, node): the node tie-break makes settle order —
// and therefore predecessor choice on equal-distance ties — deterministic,
// and in a plain search identical to a linear-scan reference Dijkstra.
func heapLess(a, b heapEntry) bool {
	return a.key < b.key || (a.key == b.key && a.node < b.node)
}

// The frontier is a 4-ary implicit heap indexed by node (pos), so an
// improving relaxation moves the node's one entry up (decrease-key) instead
// of pushing a duplicate to be popped and discarded later. Quaternary beats
// binary here: sift-downs dominate Dijkstra's pop-heavy workload and a 4-ary
// heap halves their depth at the cost of a few extra comparisons per level,
// all within one cache line of heapEntry values. Both sifts move a hole
// rather than swapping, writing each displaced entry (and its pos) once.

// siftUp places e at or above index i of h, shifting larger ancestors down.
// It serves both push (i is the fresh last slot) and decrease-key (i is the
// node's current slot).
func siftUp(h []heapEntry, node []nodeState, i int, e heapEntry) {
	for i > 0 {
		p := (i - 1) >> 2
		if !heapLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		node[h[i].node].pos = int32(i)
		i = p
	}
	h[i] = e
	node[e.node].pos = int32(i)
}

// siftDown places e at or below the root of h, pulling smaller children up.
func siftDown(h []heapEntry, node []nodeState, e heapEntry) {
	n := len(h)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if heapLess(h[j], h[best]) {
				best = j
			}
		}
		if !heapLess(h[best], e) {
			break
		}
		h[i] = h[best]
		node[h[i].node].pos = int32(i)
		i = best
	}
	h[i] = e
	node[e.node].pos = int32(i)
}

// SearchSpec parameterizes one run of the unified Dijkstra kernel.
type SearchSpec struct {
	// Src is the source node.
	Src int32
	// Target and Targets name the nodes the search is for: it stops as soon
	// as the last distinct one of them is settled (popped). Every listed
	// node's Dist, PrevLink and Path are then final, bit-identical to a full
	// tree's, because the loop up to the stop is the full tree's loop; every
	// other node's labels are partial. A listed node always queues, never
	// relaxed through, so its pop is seen; one that is unreachable never
	// pops, so the search runs to exhaustion. Target is the one-element
	// case: use NoTarget there (note the zero value targets node 0), and
	// with no Targets either every reachable node gets its final labels.
	//
	// A search that wants exactly one distinct node, with no Cost, is
	// goal-directed wherever the network admits the free-space bound
	// (DESIGN.md §7): ShortestPath, a served path and a SatTransit pair
	// are. It settles fewer nodes, and its target's Dist, PrevLink chain and
	// Path are still plain Dijkstra's, bit for bit. Listed searches (two or
	// more distinct nodes) stay plain.
	Target  int32
	Targets []int32
	// Tree, when a goal-directed search is given one, directs it in place of
	// the free-space bound: a shortest-path tree of this very network, with
	// no link banned, rooted at the search's one target, as an uncut
	// oracle's row stores it: a tree row (TreeRow) of RowNodes() entries, or
	// of N(). A node's distance to the root in that tree is a consistent
	// lower bound under any bans (DESIGN.md §7), so the target's labels are
	// still plain Dijkstra's. A served what-if passes its healthy tree, the
	// oracle's row, and settles a small fraction of the nodes. A row of
	// another length, or not rooted at the target, is ignored, and so is
	// any row where the free-space gate is closed. (KDisjointPathsTo builds
	// no row: its overlay searches read their bound off their destination's
	// ball.)
	Tree []int32
	// SatTransit is §6's "pure ISL path" model: only satellites (Kind
	// NodeSatellite) and the source forward, so a city, relay or aircraft
	// may end a path but never relay it. A node that does not forward takes
	// its label and relaxes nothing.
	SatTransit bool
	// Cost, when non-nil, replaces the link weight (default: propagation
	// delay). It must be non-negative — a popped node is final and is never
	// re-queued; returning +Inf excludes the link. Dist returns accumulated
	// cost; Path still reports true propagation delay, the sum of its links'
	// OneWayMs, as every path does. It may be asked about one
	// link many times in a search (a node relaxed through relaxes its arcs
	// again when its label falls), so it must answer alike each time.
	Cost func(int32) float64
	// Stop, when non-nil, is polled every stopPollInterval expanded nodes —
	// popped, or relaxed through — and once before the first, so as often
	// per relaxed arc as when every node queued. Returning true abandons
	// the search, making Search return false. This is how request-context
	// cancellation reaches the kernel: servers set Stop to poll ctx.Err. An
	// abandoned search leaves the state partially settled — treat its
	// results as invalid.
	Stop func() bool

	// plain keeps a search that wants one node from being goal-directed, so
	// it pops in distance order as a listed search does: what a ball must
	// do, since a goal-directed pop order leaves its radius bounding
	// nothing.
	plain bool
	// ball, a plain search from the target stopped once its last wanted
	// node settled, directs a goal-directed overlay search in place of the
	// free-space bound: v's bound is min(D(v), R) scaled by the tree slack,
	// D being the ball's label and R its radius, the label of its last pop
	// (DESIGN.md §7, "A disjoint-path set is directed by its destination's
	// ball"). A ball on another network, or not grown from the target, is
	// ignored, and the CSR kernel reads none.
	ball *SearchState
}

// stopPollInterval spaces SearchSpec.Stop polls: frequent enough that a
// cancelled request dies within microseconds, rare enough that the hot
// relax loop never notices the check.
const stopPollInterval = 1024

// NoTarget leaves SearchSpec.Target unset: with no Targets either, Search
// settles every reachable node.
const NoTarget int32 = -1

// Search runs Dijkstra from spec.Src over the network's CSR adjacency into
// st, honouring st's link bans — goal-directed by the free-space bound, or by
// spec.Tree, when spec wants one node (SearchSpec.Target). It is the single
// kernel behind every routing entry point: plain and transit-restricted
// shortest paths, k edge-disjoint paths, and the congestion-aware router.
// The inner loop performs no allocation and no hashing.
//
// A node at or above NumSat (the ground side of a built network: cities,
// relays, aircraft) that is not wanted is relaxed through instead of queued:
// when a popped node lowers its label it keeps that label and predecessor and
// relaxes its own arcs from it at once (DESIGN.md §7). Labels and
// predecessors are still plain Dijkstra's, bit for bit.
//
// Search reports whether it ran to completion: false means spec.Stop
// abandoned it and st holds partial, unusable results.
func (n *Network) Search(st *SearchState, spec SearchSpec) bool {
	// One span per search, outside the loop: with telemetry disabled this
	// is a single atomic load, preserving the kernel's allocation-free
	// profile (BenchmarkSearch against BenchmarkSearchTelemetryEnabled).
	sp := telemetry.StartStageSpan(telemetry.StageSearch)
	defer sp.End()
	n.ensureCSR()
	done, strict := n.search(st, spec, true)
	if !strict {
		// An arc lowered a label without adding to it (a Cost hook that
		// prices a link at 0, or a weight below a label's last bit): the tie
		// rule is plain Dijkstra's only where labels strictly increase along
		// arcs, so run the search again the way plain Dijkstra runs it,
		// queuing every node. A tree bounds only the nodes of its row, and a
		// queued forwarder may lie past it, so the free-space bound directs
		// the rerun.
		spec.Tree = nil
		done, _ = n.search(st, spec, false)
	}
	return done
}

// search is one run of the kernel. With through set, it relaxes ground nodes
// through, breaks every exact tie by the (dist, node, link) rule, and gives
// up, reporting strict false, at the first relaxation that lowers a label to
// the label it came from.
func (n *Network) search(st *SearchState, spec SearchSpec, through bool) (done, strict bool) {
	wantLeft, only := st.begin(n, spec) // wanted nodes not yet popped; 0: settle all
	// A search for one node, with no Cost hook, is goal-directed wherever
	// the free-space bound is consistent (SatTransit only drops arcs): the
	// heap orders by (dist + bound, node), the bound being spec.Tree's
	// where the search is given one rooted at its target.
	st.goal, st.tree, st.ball = NoTarget, nil, nil
	if wantLeft == 1 && !spec.plain && spec.Cost == nil {
		if terms := n.goalTerms(); terms != nil {
			st.goal = only
			if n.rowOf(spec.Tree) && int(only) < len(spec.Tree) && spec.Tree[only] == -1 {
				st.directByTree(spec.Tree)
			} else {
				st.toGoal = goalBound(n.Pos, terms, only)
			}
		}
	}
	// The bound is read through st, off the registers the relax loop needs;
	// freeSpace says it is the free-space bound, not the tree's.
	goal := st.goal != NoTarget
	freeSpace := goal && st.tree == nil
	tieRule := goal || through
	// Loop locals: the scratch arrays and CSR stay in registers instead of
	// being re-loaded through st and n on every arc.
	node, cur, want := st.node, st.searchStamp, st.want
	prevLink := st.prevLink
	adjStart, adjEdges, adjMs := n.adjStart, n.adjEdges, n.adjMs
	linkBans := st.anyLinkBan
	ground := int32(n.NumSat)
	transit, kind := spec.SatTransit, n.Kind

	node[spec.Src] = nodeState{stamp: cur}
	prevLink[spec.Src] = -1
	var key float64
	if freeSpace {
		key = st.toGoal.at(spec.Src)
	} else if goal {
		key = st.treeBound(spec.Src)
	}
	st.bound[spec.Src] = key
	h := append(st.heap, heapEntry{node: spec.Src, key: key})
	// expanded counts pops and nodes relaxed through, each of which relaxes
	// its arcs once: the clock Stop is polled by.
	expanded := 0
	for len(h) > 0 {
		if spec.Stop != nil && expanded%stopPollInterval == 0 && spec.Stop() {
			st.heap = h
			return false, true
		}
		expanded++
		u := h[0].node
		node[u].pos = posPopped
		g := node[u].dist
		last := len(h) - 1
		tail := h[last]
		h = h[:last]
		if last > 0 {
			siftDown(h, node, tail)
		}
		// The one stop rule, checked per pop: once the last wanted node is
		// settled, every wanted dist/prevLink is final.
		if wantLeft > 0 && want[u] == cur {
			if wantLeft--; wantLeft == 0 {
				st.stop = u
				break
			}
		}
		if transit && u != spec.Src && kind[u] != NodeSatellite {
			continue
		}
		lo, hi := adjStart[u], adjStart[u+1]
		edges, arcMs := adjEdges[lo:hi], adjMs[lo:hi]
		for k, e := range edges {
			if linkBans && st.linkBan[e.Link] == st.banStamp {
				continue
			}
			w := arcMs[k]
			if spec.Cost != nil {
				w = spec.Cost(e.Link)
				if math.IsInf(w, 1) {
					continue
				}
			}
			nd := g + w
			v := e.To
			to := &node[v]
			queued := false // v holds an entry in h
			if to.stamp == cur {
				// With non-negative weights nd >= dist holds for every
				// popped node, so the posPopped test only ever fires for
				// a Cost hook that breaks its contract.
				if nd > to.dist || to.pos == posPopped {
					continue
				}
				if nd == to.dist {
					// The tie rule. Plain Dijkstra pops the tied
					// predecessors in (dist, node) order and keeps the
					// first, and its first arc of them; a goal-directed
					// search pops them in its own order, and a node
					// relaxed through relaxes before its turn, so the
					// (dist, node, link)-least one takes over.
					if tieRule {
						l := n.Links[prevLink[v]]
						p := l.A + l.B - v
						if dp := node[p].dist; g < dp || (g == dp && (u < p || (u == p && e.Link < prevLink[v]))) {
							prevLink[v] = e.Link
						}
					}
					continue
				}
				queued = to.pos >= 0
			} else {
				to.stamp = cur
			}
			if through && nd == g { // a label that did not grow: see Search
				st.heap = h
				return false, false
			}
			to.dist = nd
			prevLink[v] = e.Link
			if through && !queued && v >= ground && want[v] != cur {
				// Relax v through: it keeps its label and predecessor and
				// relaxes its arcs from them now (unless SatTransit holds
				// it back), which a later pop that lowers the label repeats.
				// The loop below is the one above without this branch, so
				// a node it lowers is queued and nothing recurses; it is
				// written out again because a shared body costs the outer
				// loop its registers.
				to.pos = posPassed
				if transit && kind[v] != NodeSatellite {
					continue
				}
				if spec.Stop != nil && expanded%stopPollInterval == 0 && spec.Stop() {
					st.heap = h
					return false, true
				}
				expanded++
				vlo, vhi := adjStart[v], adjStart[v+1]
				vMs := adjMs[vlo:vhi]
				for j, f := range adjEdges[vlo:vhi] {
					if linkBans && st.linkBan[f.Link] == st.banStamp {
						continue
					}
					w := vMs[j]
					if spec.Cost != nil {
						w = spec.Cost(f.Link)
						if math.IsInf(w, 1) {
							continue
						}
					}
					nx := nd + w
					y := f.To
					ty := &node[y]
					yQueued := false
					if ty.stamp == cur {
						if nx > ty.dist || ty.pos == posPopped {
							continue
						}
						if nx == ty.dist {
							l := n.Links[prevLink[y]]
							p := l.A + l.B - y
							if dp := node[p].dist; nd < dp || (nd == dp && (v < p || (v == p && f.Link < prevLink[y]))) {
								prevLink[y] = f.Link
							}
							continue
						}
						yQueued = ty.pos >= 0
					} else {
						ty.stamp = cur
					}
					if nx == nd {
						st.heap = h
						return false, false
					}
					ty.dist = nx
					prevLink[y] = f.Link
					at := int(ty.pos)
					if !yQueued {
						at = len(h)
						h = append(h, heapEntry{})
						if freeSpace {
							st.bound[y] = st.toGoal.at(y)
						} else if goal {
							st.bound[y] = st.treeBound(y)
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
			at := int(to.pos)
			if !queued { // a node new to the frontier enters at the bottom
				at = len(h)
				h = append(h, heapEntry{})
				if freeSpace {
					st.bound[v] = st.toGoal.at(v)
				} else if goal {
					st.bound[v] = st.treeBound(v)
				}
			}
			key = nd
			if goal {
				key += st.bound[v]
			}
			siftUp(h, node, at, heapEntry{node: v, key: key})
		}
	}
	st.heap = h // keep the grown backing array
	return true, true
}
