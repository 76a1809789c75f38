// Package graph builds and routes over per-snapshot network graphs: nodes
// are satellites, city terminals, grid relays and aircraft; edges are radio
// ground-satellite links (GSLs) and laser inter-satellite links (ISLs),
// weighted by propagation delay at the speed of light.
package graph

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"leosim/internal/constellation"
	"leosim/internal/geo"
	"leosim/internal/safe"
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
// cache or derived from another (Builder.Hybrid, WithLinks) may share its node
// arrays with its siblings of the same instant, so holders only read it and
// whoever wants to change one works on a Clone. The one in-place writer is
// the Advancer, on a network nobody else holds.
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
	// Whoever writes a Link's OneWayMs after a freeze must refresh adjMs or
	// invalidate the CSR (AddLink invalidates; the Advancer's in-place reweight
	// refreshes).
	adjStart []int32
	adjEdges []EdgeRef
	adjMs    []float64
	csrValid atomic.Bool
	csrMu    sync.Mutex
	// csrNext is the counting-sort cursor scratch reused across freezes, so
	// the incremental advancer's periodic re-freezes stop allocating.
	csrNext []int32

	// epoch counts in-place mutations of this network by the incremental
	// advancer. Results computed against an earlier epoch (paths, pooled
	// search state reads) describe a topology that no longer exists.
	epoch uint64
}

// Epoch returns the network's mutation epoch. A freshly built snapshot is at
// epoch 0; every Advancer step that touches the network bumps it. Holders of
// derived results (paths, distances) across an Advance can compare epochs to
// detect staleness instead of trusting stale reads.
func (n *Network) Epoch() uint64 { return n.epoch }

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
// n's own (neither network writes them), the link list is the new network's,
// and its CSR is not yet frozen.
func (n *Network) sharing(links []Link) *Network {
	return &Network{
		Kind: n.Kind, Pos: n.Pos, Name: n.Name,
		Links:  links,
		NumSat: n.NumSat, NumCity: n.NumCity, NumRelay: n.NumRelay, NumAircraft: n.NumAircraft,
	}
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

// withISLs returns n plus the given lasers appended after its links, in
// order — the bytes a one-pass build of the same GSLs then ISLs produces. The
// node arrays are shared (neither network writes them); the exactly-sized
// link list and the CSR are the derived network's own.
func (n *Network) withISLs(isls []constellation.ISL, capGbps float64) *Network {
	d := n.sharing(make([]Link, len(n.Links), len(n.Links)+len(isls)))
	copy(d.Links, n.Links)
	for _, l := range isls {
		d.AddLink(int32(l.A), int32(l.B), LinkISL, capGbps)
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
	// Buffers are reused across freezes when capacities allow: a network
	// that the incremental advancer re-freezes every few steps settles into
	// steady-state arrays instead of re-allocating the CSR each time.
	nn := len(n.Kind)
	start := n.csrStart(nn)
	for i := range start {
		start[i] = 0
	}
	for _, l := range n.Links {
		start[l.A+1]++
		start[l.B+1]++
	}
	n.freezeCSRLocked(start)
}

// csrStart returns the adjStart buffer resized (not zeroed) to nn+1.
func (n *Network) csrStart(nn int) []int32 {
	start := n.adjStart
	if cap(start) < nn+1 {
		start = make([]int32, nn+1)
	}
	return start[:nn+1]
}

// csrArcs returns the edge and arc-weight buffers resized (not cleared) to
// arcs entries, and the fill cursor initialized to each node's first slot in
// start (already prefix-summed).
func (n *Network) csrArcs(start []int32, arcs int) (edges []EdgeRef, ms []float64, next []int32) {
	edges, ms = n.adjEdges, n.adjMs
	if cap(edges) < arcs || cap(ms) < arcs {
		edges = make([]EdgeRef, arcs)
		ms = make([]float64, arcs)
	}
	nn := len(start) - 1
	next = n.csrNext
	if cap(next) < nn {
		next = make([]int32, nn)
		n.csrNext = next
	}
	next = next[:nn]
	copy(next, start[:nn])
	return edges[:arcs], ms[:arcs], next
}

// freezeCSRLocked finishes a CSR freeze from start, whose slot i+1 holds node
// i's degree: prefix-sums it, fills the edge and arc-weight arrays in
// link-index order, and publishes the result. Callers hold csrMu.
func (n *Network) freezeCSRLocked(start []int32) {
	nn := len(n.Kind)
	for i := 0; i < nn; i++ {
		start[i+1] += start[i]
	}
	edges, ms, next := n.csrArcs(start, 2*len(n.Links))
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
	n.csrValid.Store(true)
}

// Clone returns an independent deep copy of the network with its CSR frozen —
// the way to a network one may write: the fibre experiment splices into one,
// and a snapshot of the advancer's in-place network that must outlive the step
// is one.
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
		epoch:       n.epoch,
	}
	c.csrValid.Store(true)
	return c
}

// Degree returns the number of links at node v.
func (n *Network) Degree(v int32) int {
	n.ensureCSR()
	return int(n.adjStart[v+1] - n.adjStart[v])
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
	// OneWayMs is the total propagation delay.
	OneWayMs float64
}

// RTTMs returns the round-trip propagation time of the path.
func (p Path) RTTMs() float64 { return 2 * p.OneWayMs }

// Hops returns the hop count (number of links).
func (p Path) Hops() int { return len(p.Links) }

// Dijkstra computes shortest (delay) distances from src to every node.
// banned, if non-nil, marks link indices to skip. It returns per-node
// distance in ms (math.Inf(1) if unreachable) and the predecessor link per
// node (-1 at src/unreachable).
//
// This is the allocating convenience wrapper; hot loops should hold a
// pooled SearchState and call Network.Search directly.
func (n *Network) Dijkstra(src int32, banned map[int32]bool) (dist []float64, prevLink []int32) {
	return n.DijkstraExpand(src, banned, nil)
}

// DijkstraExpand generalizes Dijkstra: when expand is non-nil, edges are only
// relaxed out of nodes for which expand returns true (the source is always
// expanded). This implements transit restrictions — e.g. §6's "pure ISL
// path" model forbids ground terminals as intermediate hops, so expand
// returns false for every ground-side node.
func (n *Network) DijkstraExpand(src int32, banned map[int32]bool, expand func(int32) bool) (dist []float64, prevLink []int32) {
	st := AcquireSearch()
	defer st.Release()
	for li, b := range banned {
		if b {
			st.BanLink(li)
		}
	}
	n.Search(st, SearchSpec{Src: src, Target: NoTarget, Expand: expand})
	return st.materialize(n.N())
}

// ShortestPath returns the minimum-delay path from src to dst, or ok=false
// if disconnected.
func (n *Network) ShortestPath(src, dst int32) (Path, bool) {
	st := AcquireSearch()
	defer st.Release()
	n.Search(st, SearchSpec{Src: src, Target: dst})
	return st.Path(dst)
}

// ShortestPathSatTransit returns the minimum-delay path from src to dst that
// only transits satellites: ground-side nodes other than src may terminate
// the path but never forward traffic. This is the §6 "ISL path" model,
// which excludes GTs as intermediate hops.
func (n *Network) ShortestPathSatTransit(src, dst int32) (Path, bool) {
	st := AcquireSearch()
	defer st.Release()
	n.Search(st, SearchSpec{Src: src, Target: dst, Expand: func(v int32) bool {
		return !n.IsGroundSide(v)
	}})
	return st.Path(dst)
}

// KDisjointPaths returns up to k edge-disjoint minimum-delay paths from src
// to dst, computed by successively removing the links of each found path
// (the scheme §5 routes traffic over). Fewer than k paths are returned when
// the graph runs out of disjoint routes.
func (n *Network) KDisjointPaths(src, dst int32, k int) []Path {
	sp := telemetry.StartStageSpan(telemetry.StageKDisjoint)
	defer sp.End()
	st := AcquireSearch()
	defer st.Release()
	var out []Path
	for i := 0; i < k; i++ {
		n.Search(st, SearchSpec{Src: src, Target: dst})
		p, ok := st.Path(dst)
		if !ok {
			break
		}
		out = append(out, p)
		for _, li := range p.Links {
			st.BanLink(li)
		}
	}
	return out
}

// MultiSourceDistances runs Dijkstra from each source in parallel (bounded
// by GOMAXPROCS, panic-safe via internal/safe) and returns dist[i] for
// sources[i].
func (n *Network) MultiSourceDistances(sources []int32) [][]float64 {
	n.ensureCSR() // freeze once, before the fan-out
	out := make([][]float64, len(sources))
	g := safe.NewGroup(context.Background(), runtime.GOMAXPROCS(0))
	for i, src := range sources {
		i, src := i, src
		g.Go(func() error {
			st := AcquireSearch()
			defer st.Release()
			n.Search(st, SearchSpec{Src: src, Target: NoTarget})
			out[i] = st.materializeDist(n.N())
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		// Workers only fail by panicking; re-throw so callers' RecoverTo
		// (or the test harness) sees the original stack.
		panic(err)
	}
	return out
}

// WalkPath reconstructs the node/link sequence from dst back to src given a
// predecessor-link lookup and the already-known total delay. It is the
// exported form of the back-walk every in-package path extraction uses, for
// callers (the distance-oracle layer) that hold predecessor trees outside a
// SearchState. prevAt must return the predecessor link of a node as the
// kernel recorded it, or a negative value where no predecessor exists.
func (n *Network) WalkPath(src, dst int32, prevAt func(int32) int32, total float64) (Path, bool) {
	return n.walkPath(src, dst, prevAt, total)
}
