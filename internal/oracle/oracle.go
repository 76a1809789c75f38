// Package oracle precomputes per-snapshot distance oracles over frozen CSR
// snapshot graphs, trading a one-time build per snapshot epoch for
// microsecond path queries afterwards — the serving-scale layer ROADMAP
// calls for: `leosim serve` pays ~2 ms of Dijkstra per (pair, snapshot)
// cache miss, which caps it far below planetary-scale query volumes.
//
// The oracle is a set of hub labels: one full shortest-path tree per city
// terminal (the query endpoints of the serving API), computed by the very
// same Dijkstra kernel (graph.Network.Search) the uncached path answers run
// through. Sharing the kernel is what makes the oracle *provably* exact rather
// than approximately so: distances are bit-identical and the stored
// predecessor trees reconstruct the identical tie-broken path, byte for byte
// (the differential battery in oracle_test.go pins this across motifs, fault
// masks and presets). Of each tree it keeps only what a served answer reads:
// the predecessor row (to reconstruct a route when one is asked for) and, for
// the other cities only, the distance and the hop count of the tree path —
// two cities × cities tables, not cities × nodes ones. A route-less answer is
// one read of each.
//
// An oracle of a what-if is built on the healthy network with the mask's cut
// banned (graph.View), so it labels the masked network without one being
// materialized; its stored paths carry the healthy network's link indices.
//
// An Oracle is immutable after Build and safe for unbounded concurrent
// readers; it answers for exactly the view it was built from — the network
// instance and the cut — which Valid checks. The snapshot cache carries
// oracles alongside their snapshots: snapcache.Attach pins one to a resident
// entry only while that entry still holds the very view it was built from
// (pointer identity), and drops it with the entry. So
// an oracle rides its snapshot's LRU lifecycle, cannot outlive it in the
// cache, and a reader that checks Valid never answers about any view but the
// oracle's own — a what-if's oracle never for its healthy parent, nor the
// parent's for it.
package oracle

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"leosim/internal/graph"
	"leosim/internal/safe"
	"leosim/internal/telemetry"
)

// Options is the cut Build searches under; Options{} (no cut) labels the
// network whole. It is a name for graph.Cut because the benchmark module
// passes Options{}.
type Options = graph.Cut

// Stats describes a built oracle.
type Stats struct {
	// Sources is the number of hub-label trees (one per city).
	Sources int
	// Nodes is the node count of the underlying snapshot graph.
	Nodes int
	// BuildDuration is the wall time Build spent.
	BuildDuration time.Duration
	// Bytes is the resident label memory: the prev, dist and hops arrays,
	// exactly.
	Bytes int64
}

// Oracle answers exact shortest-path queries over one frozen snapshot graph.
type Oracle struct {
	net   *graph.Network
	cut   graph.Cut
	nn    int // node count
	ncity int

	// prev holds the per-city predecessor trees, row-major: row i (the tree
	// rooted at city i's node) occupies [i*nn, (i+1)*nn), -1 at the root and
	// at unreached nodes. dist[i*ncity+j] is the delay from city i to city
	// j in i's tree, +Inf when unreached; hops[i*ncity+j] is the link count of
	// that tree path, 0 when unreached (and on the diagonal).
	prev []int32
	dist []float64
	hops []uint16

	buildTime time.Duration
}

// Build constructs the oracle for n without the links of cut: one
// shortest-path tree per city, run in parallel (GOMAXPROCS workers) through
// the shared Dijkstra kernel with the cut banned. With no cut the trees run on
// n's relay overlay, built for this build and released with it
// (graph.AcquireOverlay); every row is the CSR kernel's, bit for bit. The
// context cancels the fan-out between sources; a cancelled build returns
// ctx.Err() and no oracle.
func Build(ctx context.Context, n *graph.Network, cut Options) (*Oracle, error) {
	sp := telemetry.StartStageSpan(telemetry.StageOracleBuild)
	defer sp.End()
	start := time.Now()
	nn := n.N()
	ncity := n.NumCity
	if ncity == 0 {
		return nil, fmt.Errorf("oracle: network has no city terminals to label")
	}
	o := &Oracle{
		net:   n,
		cut:   cut,
		nn:    nn,
		ncity: ncity,
		prev:  make([]int32, ncity*nn),
		dist:  make([]float64, ncity*ncity),
		hops:  make([]uint16, ncity*ncity),
	}
	// Freeze the CSR once before the fan-out (Degree forces it) so workers
	// never contend on the freeze lock.
	if nn > 0 {
		n.Degree(0)
	}
	// fillHops' scratch, one per worker rather than one per tree: a task takes
	// a buffer for its walk and hands it back, and they die with the build.
	workers := min(runtime.GOMAXPROCS(0), ncity)
	scratch := make(chan []int32, workers)
	for i := 0; i < workers; i++ {
		scratch <- make([]int32, nn)
	}
	search := graph.View{N: n, Cut: cut}.Search
	if len(cut) == 0 {
		ov := graph.AcquireOverlay(n, ncity)
		defer ov.Release()
		search = ov.Search
	}
	g := safe.NewGroup(ctx, workers)
	for city := 0; city < ncity; city++ {
		city := city
		g.Go(func() error {
			if err := ctx.Err(); err != nil {
				return err
			}
			st := graph.AcquireSearch()
			defer st.Release()
			search(st, graph.SearchSpec{Src: n.CityNode(city), Target: graph.NoTarget})
			prev := o.prev[city*nn : (city+1)*nn]
			for v := range prev {
				prev[v] = st.PrevLink(int32(v))
			}
			dist := o.dist[city*ncity : (city+1)*ncity]
			for dst := range dist {
				dist[dst] = st.Dist(n.CityNode(dst))
			}
			depth := <-scratch
			defer func() { scratch <- depth }()
			return o.fillHops(city, depth)
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	o.buildTime = time.Since(start)
	return o, nil
}

// fillHops writes row city of the hop table from the predecessor row Build
// has just stored. depth (one entry per node, contents ignored) memoises the
// back-walk — depth[v] is v's hop count from the root plus one, 0 while
// unknown — so a walk from a city stops at the first node an earlier walk
// already measured and every tree node is measured at most once per tree. A
// count beyond uint16 fails the build.
func (o *Oracle) fillHops(city int, depth []int32) error {
	n := o.net
	prev := o.prev[city*o.nn : (city+1)*o.nn]
	hops := o.hops[city*o.ncity : (city+1)*o.ncity]
	clear(depth)
	depth[n.CityNode(city)] = 1
	parent := func(v int32) int32 {
		l := n.Links[prev[v]]
		if l.A == v {
			return l.B
		}
		return l.A
	}
	walk := make([]int32, 0, 64) // the nodes between a city and the first measured one
	for dst := range hops {
		leaf := n.CityNode(dst)
		if prev[leaf] < 0 {
			continue // the root itself, or unreached
		}
		walk = walk[:0]
		at := leaf
		for ; depth[at] == 0; at = parent(at) {
			walk = append(walk, at)
		}
		d := depth[at]
		for i := len(walk) - 1; i >= 0; i-- {
			d++
			depth[walk[i]] = d
		}
		h := depth[leaf] - 1
		if h > math.MaxUint16 {
			return fmt.Errorf("oracle: the path from city %d to city %d has %d hops, beyond the hop table's uint16", city, dst, h)
		}
		hops[dst] = uint16(h)
	}
	return nil
}

// Valid reports whether the oracle still describes v: the same network
// instance (a network is never written after its freeze), with the same cut.
// A rebuilt cache entry, or the view of another fault mask over the same
// network, fails this check, and callers must rebuild rather than serve
// answers about a topology that is not v.
func (o *Oracle) Valid(v *graph.View) bool {
	return v != nil && o.net == v.N && slices.Equal(o.cut, v.Cut)
}

// Stats summarizes the built oracle.
func (o *Oracle) Stats() Stats {
	return Stats{
		Sources:       o.ncity,
		Nodes:         o.nn,
		BuildDuration: o.buildTime,
		Bytes:         int64(len(o.prev))*4 + int64(len(o.dist))*8 + int64(len(o.hops))*2,
	}
}

// Sources returns the number of labelled sources (cities).
func (o *Oracle) Sources() int { return o.ncity }

// DistMs returns the exact one-way shortest-path delay between two cities
// in milliseconds, +Inf when the pair is disconnected at this snapshot. It
// is a single array read.
func (o *Oracle) DistMs(srcCity, dstCity int) float64 {
	return o.dist[srcCity*o.ncity+dstCity]
}

// Hops returns the link count of the path Query reconstructs for the pair —
// the stored tree path — without walking it: a single array read. It is 0
// when the pair is disconnected at this snapshot (and for src == dst).
func (o *Oracle) Hops(srcCity, dstCity int) int {
	return int(o.hops[srcCity*o.ncity+dstCity])
}

// Tree returns city's stored predecessor row — the kernel's shortest-path
// tree rooted at the city's node, in graph.SearchSpec.Tree's layout — for a
// search of the oracle's network to direct itself by, or nil when the oracle
// was built under a cut: a cut tree's distances can exceed the network's,
// so its row bounds nothing but searches of its own view. The row is the
// oracle's own memory; callers only read it.
func (o *Oracle) Tree(city int) []int32 {
	if len(o.cut) > 0 {
		return nil
	}
	return o.prev[city*o.nn : (city+1)*o.nn : (city+1)*o.nn]
}

// Query returns the exact shortest path between two cities, reconstructed
// from city srcCity's stored predecessor tree — node for node and link for
// link the path the Dijkstra kernel would find, including equal-distance
// tie-breaks (the kernel's (dist, node) settle order is deterministic and
// the tree stores its choices). ok is false when the pair is disconnected.
func (o *Oracle) Query(srcCity, dstCity int) (graph.Path, bool) {
	sp := telemetry.StartStageSpan(telemetry.StageOracleQuery)
	defer sp.End()
	total := o.DistMs(srcCity, dstCity)
	if math.IsInf(total, 1) {
		return graph.Path{}, false
	}
	row := o.prev[srcCity*o.nn : (srcCity+1)*o.nn]
	return o.net.WalkPath(o.net.CityNode(srcCity), o.net.CityNode(dstCity),
		func(v int32) int32 { return row[v] }, total)
}
