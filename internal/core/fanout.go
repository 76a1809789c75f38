package core

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"

	"leosim/internal/graph"
	"leosim/internal/safe"
	"leosim/internal/telemetry"
)

// groupPairs maps each end city of pairs — end picks the source (pairSrc) or
// the destination (pairDst) — to the indices of the pairs there, ascending.
func groupPairs(pairs []Pair, end func(Pair) int) map[int][]int {
	groups := map[int][]int{}
	for pi, p := range pairs {
		groups[end(p)] = append(groups[end(p)], pi)
	}
	return groups
}

func pairSrc(p Pair) int { return p.Src }
func pairDst(p Pair) int { return p.Dst }

// eachGroup runs fn once per end city of pairs (groupPairs), in parallel and
// in no set order: pis are the indices into pairs of the pairs there,
// ascending. It is the one loop over a pair list's groups, per source or per
// destination. Cancellation of ctx stops further groups with the context's
// error; a worker panic comes back as a *safe.PanicError.
func eachGroup(ctx context.Context, pairs []Pair, end func(Pair) int, fn func(city int, pis []int) error) error {
	g := safe.NewGroup(ctx, runtime.GOMAXPROCS(0))
	for city, pis := range groupPairs(pairs, end) {
		g.Go(func() error { return fn(city, pis) })
	}
	return g.Wait()
}

// searchPairsTestHook, when non-nil, runs inside every searchPairs worker
// that searches. Tests inject panics and cancellations here.
var searchPairsTestHook func(src int)

// searchPairs runs, on the view v, one search per source city of the pairs
// want marks (nil: every pair), stopped once its last wanted destination is
// settled, satellites-only where transit is set (SearchSpec.SatTransit).
// visit gets each wanted pair's index and destination node and the settled
// search, whose labels there are a full tree's, bit for bit (DESIGN.md §7); it
// runs on the source's worker and writes only pair pi's slots. With no cut the
// searches run on the relay overlay, built for a fan-out that pays for it and
// shared by its workers (graph.NewOverlay): every label and path a visit reads
// is the CSR kernel's, bit for bit. The fan-out is one search span.
func searchPairs(ctx context.Context, v graph.View, pairs []Pair, want []bool, transit bool,
	visit func(pi int, dst int32, st *graph.SearchState)) error {
	defer telemetry.RecordSpan(ctx, telemetry.StageSearch).End()
	n := v.N
	search := v.Search
	if len(v.Cut) == 0 {
		sources := map[int]bool{} // the searches the overlay must pay for
		for pi, p := range pairs {
			if want == nil || want[pi] {
				sources[p.Src] = true
			}
		}
		search = graph.NewOverlay(n, len(sources)).Search
	}
	return eachGroup(ctx, pairs, pairSrc, func(src int, pis []int) error {
		var wanted []int
		var dsts []int32
		for _, pi := range pis {
			if want == nil || want[pi] {
				wanted = append(wanted, pi)
				dsts = append(dsts, n.CityNode(pairs[pi].Dst))
			}
		}
		if len(wanted) == 0 {
			return nil
		}
		if searchPairsTestHook != nil {
			searchPairsTestHook(src)
		}
		st := graph.AcquireSearch()
		defer st.Release()
		search(st, graph.SearchSpec{Src: n.CityNode(src), Target: graph.NoTarget, Targets: dsts, SatTransit: transit})
		for i, pi := range wanted {
			visit(pi, dsts[i], st)
		}
		return nil
	})
}

// pairRTTs computes, on one snapshot view, the round-trip time in ms of every
// pair of pairs that want marks (nil: every pair), indexed like pairs.
// Unreachable and unwanted pairs get +Inf; the slice is partial on error.
func pairRTTs(ctx context.Context, v graph.View, pairs []Pair, want []bool) ([]float64, error) {
	out := fill(len(pairs), math.Inf(1))
	return out, searchPairs(ctx, v, pairs, want, false, func(pi int, dst int32, st *graph.SearchState) {
		out[pi] = 2 * st.Dist(dst)
	})
}

// pairPaths returns, on one snapshot view, the path of every pair of pairs
// that want marks (nil: every pair), satellites-only where transit is set,
// indexed like pairs: the one a single-pair search under the same rule finds.
// Unreachable and unwanted pairs get the zero Path; the slice is partial on
// error.
func pairPaths(ctx context.Context, v graph.View, pairs []Pair, want []bool, transit bool) ([]graph.Path, error) {
	out := make([]graph.Path, len(pairs))
	return out, searchPairs(ctx, v, pairs, want, transit, func(pi int, dst int32, st *graph.SearchState) {
		out[pi], _ = st.Path(dst)
	})
}

// computePairPaths finds k edge-disjoint shortest paths per pair of the sim,
// one KDisjointPathsTo per destination city in parallel (eachGroup): each
// destination's ball directs the searches of every pair arriving there. The
// balls and peels run on one relay overlay of n, built for the up to k
// searches per pair and shared by the destinations' workers: every path is
// the CSR kernel's, bit for bit.
func computePairPaths(ctx context.Context, s *Sim, n *graph.Network, k int) ([][]graph.Path, error) {
	defer telemetry.RecordSpan(ctx, telemetry.StageKDisjoint).End()
	ov := graph.NewOverlay(n, k*len(s.Pairs))
	out := make([][]graph.Path, len(s.Pairs))
	var done atomic.Int64
	err := eachGroup(ctx, s.Pairs, pairDst, func(dst int, pis []int) error {
		srcs := make([]int32, len(pis))
		for i, pi := range pis {
			srcs[i] = n.CityNode(s.Pairs[pi].Src)
		}
		for i, paths := range ov.KDisjointPathsTo(n.CityNode(dst), srcs, k) {
			out[pis[i]] = paths
		}
		if d := done.Add(int64(len(pis))); d/1000 > (d-int64(len(pis)))/1000 {
			progressf("  ... %d/%d pairs routed\n", d, len(s.Pairs))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
