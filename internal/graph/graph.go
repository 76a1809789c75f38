// Package graph builds and routes over per-snapshot network graphs: nodes
// are satellites, city terminals, grid relays and aircraft; edges are radio
// ground-satellite links (GSLs) and laser inter-satellite links (ISLs),
// weighted by propagation delay at the speed of light.
package graph

import (
	"fmt"
	"sync"
	"sync/atomic"

	"leosim/internal/constellation"
	"leosim/internal/geo"
	"leosim/internal/telemetry"
)

// NodeKind classifies graph nodes.
type NodeKind uint8

const (
	// NodeSatellite is a constellation satellite.
	NodeSatellite NodeKind = iota
	// NodeCity is a city ground terminal (traffic source/sink + transit).
	NodeCity
	// NodeRelay is a transit-only grid relay terminal.
	NodeRelay
	// NodeAircraft is an over-water in-flight aircraft relay.
	NodeAircraft
)

// String implements fmt.Stringer.
func (k NodeKind) String() string {
	switch k {
	case NodeSatellite:
		return "sat"
	case NodeCity:
		return "city"
	case NodeRelay:
		return "relay"
	case NodeAircraft:
		return "aircraft"
	default:
		return fmt.Sprintf("node(%d)", uint8(k))
	}
}

// LinkKind classifies links.
type LinkKind uint8

const (
	// LinkGSL is a radio ground(or aircraft)-satellite link.
	LinkGSL LinkKind = iota
	// LinkISL is a laser inter-satellite link.
	LinkISL
	// LinkFiber is a terrestrial fiber link (fiber augmentation, §8).
	LinkFiber
)

// String implements fmt.Stringer.
func (k LinkKind) String() string {
	switch k {
	case LinkGSL:
		return "gsl"
	case LinkISL:
		return "isl"
	case LinkFiber:
		return "fiber"
	default:
		return fmt.Sprintf("link(%d)", uint8(k))
	}
}

// Link is an undirected link between nodes A and B. Each direction has the
// full CapGbps available (full-duplex), matching how the paper assigns
// up/down-link and ISL capacities.
type Link struct {
	A, B    int32
	Kind    LinkKind
	CapGbps float64
	// OneWayMs is the propagation delay of the link.
	OneWayMs float64
}

// EdgeRef is one direction of a Link in the adjacency structure.
type EdgeRef struct {
	// To is the neighbour node.
	To int32
	// Link indexes Network.Links.
	Link int32
}

// Network is an immutable per-snapshot network graph. One handed out by a
// cache or derived from another (Builder.Hybrid, WithLinks, WithISLs) may
// share its node arrays with its siblings of the same instant, so holders only
// read it and whoever wants to change one works on a Clone. Nothing writes a
// network after its CSR freeze.
type Network struct {
	// Kind and Pos describe the nodes; len(Kind) == len(Pos) == N().
	Kind []NodeKind
	Pos  []geo.Vec3
	// Name holds a human-readable label per node.
	Name []string
	// Links is the undirected link list; adjacency references it.
	Links []Link

	// Node-count metadata filled in by the Builder: nodes are laid out as
	// satellites, then cities, then relays, then aircraft.
	NumSat, NumCity, NumRelay, NumAircraft int

	// CSR adjacency, frozen from Links on first use after any mutation:
	// node v's edges are adjEdges[adjStart[v]:adjStart[v+1]], laid out
	// contiguously so the Dijkstra relax loop walks flat memory instead of
	// chasing per-node slices. adjStart has N()+1 entries. adjMs[k] is a copy
	// of Links[adjEdges[k].Link].OneWayMs, so relaxing an arc reads its
	// weight from the stream it is already walking instead of a random Link.
	// AddLink invalidates the CSR; the next use freezes it again.
	adjStart []int32
	adjEdges []EdgeRef
	adjMs    []float64
	csrValid atomic.Bool
	csrMu    sync.Mutex

	// terms holds the free-space bound's per-node terms, shared with every
	// network of the same node arrays; gate is whether the bound may direct
	// searches over this network's links (gateUnknown until the first
	// goal-directed search after a freeze decides it). See bound.go.
	terms atomic.Pointer[nodeTerms]
	gate  atomic.Int32
	// rows is RowNodes()+1 once taken after a freeze, 0 until then.
	rows atomic.Int32
}

// SatNode returns the node index of satellite i.
func (n *Network) SatNode(i int) int32 { return int32(i) }

// CityNode returns the node index of city i.
func (n *Network) CityNode(i int) int32 { return int32(n.NumSat + i) }

// IsGroundSide reports whether node v is any kind of terminal (city, relay
// or aircraft) as opposed to a satellite.
func (n *Network) IsGroundSide(v int32) bool { return n.Kind[v] != NodeSatellite }

// N returns the node count.
func (n *Network) N() int { return len(n.Kind) }

// AddNode appends a node and returns its index.
func (n *Network) AddNode(kind NodeKind, pos geo.Vec3, name string) int32 {
	n.Kind = append(n.Kind, kind)
	n.Pos = append(n.Pos, pos)
	n.Name = append(n.Name, name)
	n.csrValid.Store(false)
	n.resetBound(true)
	return int32(len(n.Kind) - 1)
}

// AddLink connects a and b with the given kind and capacity; the propagation
// delay is derived from the node positions at speed c (or the fiber speed
// for fiber links). It returns the link index.
func (n *Network) AddLink(a, b int32, kind LinkKind, capGbps float64) int32 {
	dist := n.Pos[a].Distance(n.Pos[b])
	ms := dist * geo.MsPerKm
	if kind == LinkFiber {
		// Fiber follows terrestrial rights-of-way; apply the customary
		// ×1.5 path-stretch over the geodesic.
		ms = dist * 1.5 / geo.FiberSpeed * 1000
	}
	l := Link{A: a, B: b, Kind: kind, CapGbps: capGbps, OneWayMs: ms}
	idx := int32(len(n.Links))
	n.Links = append(n.Links, l)
	n.csrValid.Store(false)
	return idx
}

// sharing returns a network of n's nodes joined by links: the node arrays are
// n's own (neither network writes them), and so are the bound's node terms;
// the link list is the new network's, and its CSR is not yet frozen.
func (n *Network) sharing(links []Link) *Network {
	d := &Network{
		Kind: n.Kind, Pos: n.Pos, Name: n.Name,
		Links:  links,
		NumSat: n.NumSat, NumCity: n.NumCity, NumRelay: n.NumRelay, NumAircraft: n.NumAircraft,
	}
	d.terms.Store(n.nodeTermsOf())
	return d
}

// WithLinks derives the network of n's nodes joined by links instead of n's
// own, its CSR frozen and ready for concurrent readers. It shares n's node
// arrays, takes ownership of links, and does not write n — how a fault mask
// materializes the faulted network where its capacities are read: a filter
// over the healthy link list, in order, with no node copied. A question about
// routes alone asks a View instead.
func (n *Network) WithLinks(links []Link) *Network {
	d := n.sharing(links)
	d.ensureCSR()
	return d
}

// WithISLs returns n plus the given lasers, at ISLCapGbps each, appended
// after its links in order — the bytes a one-pass build of the same GSLs then
// ISLs produces. The node arrays are shared (neither network writes them); the
// exactly-sized link list and the CSR are the derived network's own.
func (n *Network) WithISLs(isls []constellation.ISL) *Network {
	d := n.sharing(make([]Link, len(n.Links), len(n.Links)+len(isls)))
	copy(d.Links, n.Links)
	for _, l := range isls {
		d.AddLink(int32(l.A), int32(l.B), LinkISL, ISLCapGbps)
	}
	d.ensureCSR()
	return d
}

// ensureCSR freezes the adjacency structure into CSR form if any mutation
// invalidated it. Safe for concurrent callers: the first one in rebuilds
// under a lock, everyone else observes the published layout via the atomic
// flag. Builder.At freezes eagerly so concurrent experiment workers never
// contend here.
func (n *Network) ensureCSR() {
	if n.csrValid.Load() {
		return
	}
	n.csrMu.Lock()
	defer n.csrMu.Unlock()
	if n.csrValid.Load() {
		return
	}
	// The span starts after the fast-path returns, so only real freezes —
	// once per network — are measured.
	sp := telemetry.StartStageSpan(telemetry.StageCSRFreeze)
	defer sp.End()
	// Counting sort by endpoint: start[v+1] first holds v's degree, then the
	// prefix sum makes start[v] v's first slot.
	nn := len(n.Kind)
	start := make([]int32, nn+1)
	for _, l := range n.Links {
		start[l.A+1]++
		start[l.B+1]++
	}
	for i := 0; i < nn; i++ {
		start[i+1] += start[i]
	}
	edges := make([]EdgeRef, 2*len(n.Links))
	ms := make([]float64, 2*len(n.Links))
	next := append([]int32(nil), start[:nn]...)
	// Iterating Links in index order reproduces the append order the old
	// per-node slices had, so relaxation order — and with it every
	// tie-broken predecessor — is unchanged.
	for li, l := range n.Links {
		k := next[l.A]
		edges[k], ms[k] = EdgeRef{To: l.B, Link: int32(li)}, l.OneWayMs
		next[l.A]++
		k = next[l.B]
		edges[k], ms[k] = EdgeRef{To: l.A, Link: int32(li)}, l.OneWayMs
		next[l.B]++
	}
	n.adjStart, n.adjEdges, n.adjMs = start, edges, ms
	n.resetBound(false)
	n.csrValid.Store(true)
}

// Clone returns an independent deep copy of the network with its CSR frozen —
// the way to a network one may write: the fibre experiment splices into one.
func (n *Network) Clone() *Network {
	n.ensureCSR()
	c := &Network{
		Kind:        append([]NodeKind(nil), n.Kind...),
		Pos:         append([]geo.Vec3(nil), n.Pos...),
		Name:        append([]string(nil), n.Name...),
		Links:       append([]Link(nil), n.Links...),
		NumSat:      n.NumSat,
		NumCity:     n.NumCity,
		NumRelay:    n.NumRelay,
		NumAircraft: n.NumAircraft,
		adjStart:    append([]int32(nil), n.adjStart...),
		adjEdges:    append([]EdgeRef(nil), n.adjEdges...),
		adjMs:       append([]float64(nil), n.adjMs...),
	}
	c.csrValid.Store(true)
	return c
}

// Edges returns node v's adjacency list. The returned slice is owned by the
// network, must not be mutated, and is invalidated by AddLink.
func (n *Network) Edges(v int32) []EdgeRef {
	n.ensureCSR()
	return n.adjEdges[n.adjStart[v]:n.adjStart[v+1]]
}

// Path is a route through the network.
type Path struct {
	Nodes []int32
	// Links[i] is the link index between Nodes[i] and Nodes[i+1].
	Links []int32
	// OneWayMs is the total propagation delay: the links' OneWayMs summed
	// from Nodes[0] on.
	OneWayMs float64
}

// RTTMs returns the round-trip propagation time of the path.
func (p Path) RTTMs() float64 { return 2 * p.OneWayMs }

// Hops returns the hop count (number of links).
func (p Path) Hops() int { return len(p.Links) }

// walk lays down the path from src to dst by one back-walk from dst, the one
// path builder behind SearchState.Path and WalkRow. step(v) names li, the
// link into v on the path (-1: v has none), or, where a tree row records v
// past a forwarder r outside the row, the link into r, with rv the link r–v
// (-1 otherwise). OneWayMs is the sum of the link delays from src to dst, the
// order every kernel forms its labels in (DESIGN.md §7, "A path is its
// links"). ok is false where the walk stops short of src, or is longer than
// the network has nodes (a cycle).
func (n *Network) walk(src, dst int32, step func(v int32) (li, rv int32)) (Path, bool) {
	type hop struct{ to, link int32 }
	back := make([]hop, 0, 64) // dst first; a short path's stays on the stack
	links := n.Links
	for at := dst; at != src; {
		li, rv := step(at)
		if li < 0 || len(back) >= n.N() {
			return Path{}, false
		}
		if rv >= 0 {
			back = append(back, hop{at, rv})
			at = links[rv].A + links[rv].B - at
		}
		back = append(back, hop{at, li})
		at = links[li].A + links[li].B - at
	}
	p := Path{Nodes: make([]int32, len(back)+1), Links: make([]int32, len(back))}
	p.Nodes[0] = src
	for i := range p.Links {
		h := back[len(back)-1-i]
		p.Nodes[i+1], p.Links[i] = h.to, h.link
		p.OneWayMs += links[h.link].OneWayMs
	}
	return p, true
}

// ShortestPath returns the minimum-delay path from src to dst, or ok=false
// if disconnected.
func (n *Network) ShortestPath(src, dst int32) (Path, bool) {
	st := AcquireSearch()
	defer st.Release()
	n.Search(st, SearchSpec{Src: src, Target: dst})
	return st.Path(dst)
}

// KDisjointPaths returns up to k edge-disjoint minimum-delay paths from src
// to dst, computed by successively removing the links of each found path (the
// scheme §5 routes traffic over); fewer when the graph runs out of disjoint
// routes. It is KDisjointPathsTo's one-source case.
func (n *Network) KDisjointPaths(src, dst int32, k int) []Path {
	return n.KDisjointPathsTo(dst, []int32{src}, k)[0]
}

// KDisjointPathsTo returns as entry i the up to k edge-disjoint paths from
// srcs[i] to dst that KDisjointPaths peels, each plain Dijkstra's path bit for
// bit (DESIGN.md §7). Where the free-space gate is open, one plain search from
// dst, stopped once its last source settles, is the destination's ball: it
// directs every search of every set, a source's unbanned first path and each
// banned peel, each reading v's bound off the ball's own label capped at its
// radius. Where the gate is closed the kernel would ignore the ball, so none
// is grown. A source the ball does not reach has no path and is not searched.
func (n *Network) KDisjointPathsTo(dst int32, srcs []int32, k int) [][]Path {
	return n.kDisjointPathsTo(dst, srcs, k, nil)
}

// KDisjointPathsToSettled is KDisjointPathsTo that also counts the nodes its
// searches settle: ball the destination's ball, peels every search it directs.
func (n *Network) KDisjointPathsToSettled(dst int32, srcs []int32, k int) (paths [][]Path, ball, peels int) {
	var settled [2]int
	paths = n.kDisjointPathsTo(dst, srcs, k, &settled)
	return paths, settled[0], settled[1]
}

// kDisjointPathsTo is KDisjointPathsTo; where settled is set it adds to it the
// nodes the ball ([0]) and the peels ([1]) settle.
func (n *Network) kDisjointPathsTo(dst int32, srcs []int32, k int, settled *[2]int) [][]Path {
	sp := telemetry.StartStageSpan(telemetry.StageKDisjoint)
	defer sp.End()
	out := make([][]Path, len(srcs))
	if k < 1 || len(srcs) == 0 {
		return out
	}
	st := AcquireSearch()
	defer st.Release()
	var ball *SearchState
	if n.goalTerms() != nil {
		ball = AcquireSearch()
		defer ball.Release()
		n.growBall(ball, dst, srcs)
		if settled != nil {
			settled[0] += ball.settled()
		}
	}
	for i, src := range srcs {
		if ball != nil && !ball.Reached(src) {
			continue
		}
		st.ClearBans()
		for len(out[i]) < k {
			n.Search(st, SearchSpec{Src: src, Target: dst, ball: ball})
			if settled != nil {
				settled[1] += st.settled()
			}
			p, ok := st.Path(dst)
			if !ok {
				break
			}
			out[i] = append(out[i], p)
			for _, li := range p.Links {
				st.BanLink(li)
			}
		}
	}
	return out
}

// growBall grows dst's ball for srcs into ball: a plain search from dst, never
// goal-directed even for one source, stopped once its last source settles, or
// run to exhaustion where one is unreachable.
func (n *Network) growBall(ball *SearchState, dst int32, srcs []int32) {
	n.Search(ball, SearchSpec{Src: dst, Target: NoTarget, Targets: srcs, plain: true})
}
