package core

import (
	"context"
	"math"
	"runtime"

	"leosim/internal/graph"
	"leosim/internal/safe"
	"leosim/internal/telemetry"
)

// groupPairs maps each source city of pairs to the indices of its pairs,
// ascending.
func groupPairs(pairs []Pair) map[int][]int {
	bySrc := map[int][]int{}
	for pi, p := range pairs {
		bySrc[p.Src] = append(bySrc[p.Src], pi)
	}
	return bySrc
}

// eachSource runs fn once per source city of pairs, in parallel and in no set
// order: pis are the indices into pairs of the pairs leaving src, ascending.
// It is the one loop over a pair list's source groups. Cancellation of ctx
// stops further sources with the context's error; a worker panic comes back
// as a *safe.PanicError.
func eachSource(ctx context.Context, pairs []Pair, fn func(src int, pis []int) error) error {
	g := safe.NewGroup(ctx, runtime.GOMAXPROCS(0))
	for src, pis := range groupPairs(pairs) {
		g.Go(func() error { return fn(src, pis) })
	}
	return g.Wait()
}

// searchPairsTestHook, when non-nil, runs inside every searchPairs worker
// that searches. Tests inject panics and cancellations here.
var searchPairsTestHook func(src int)

// searchPairs runs, on the view v, one search per source city of the pairs
// want marks (nil: every pair), stopped once its last wanted destination is
// settled, under the forwarding restriction expand (nil: none). visit gets
// each wanted pair's index and destination node and the settled search, whose
// labels there are a full tree's, bit for bit (DESIGN.md §7); it runs on the
// source's worker and writes only pair pi's slots. The fan-out is one search
// span.
func searchPairs(ctx context.Context, v graph.View, pairs []Pair, want []bool, expand func(int32) bool,
	visit func(pi int, dst int32, st *graph.SearchState)) error {
	defer telemetry.RecordSpan(ctx, telemetry.StageSearch).End()
	n := v.N
	return eachSource(ctx, pairs, func(src int, pis []int) error {
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
		v.Search(st, graph.SearchSpec{Src: n.CityNode(src), Target: graph.NoTarget, Targets: dsts, Expand: expand})
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
	return out, searchPairs(ctx, v, pairs, want, nil, func(pi int, dst int32, st *graph.SearchState) {
		out[pi] = 2 * st.Dist(dst)
	})
}

// pairPaths returns, on one snapshot view, the path of every pair of pairs
// that want marks (nil: every pair) under expand (nil: none), indexed like
// pairs: the one ShortestPath finds, or with expand ShortestPathSatTransit.
// Unreachable and unwanted pairs get the zero Path; the slice is partial on
// error.
func pairPaths(ctx context.Context, v graph.View, pairs []Pair, want []bool, expand func(int32) bool) ([]graph.Path, error) {
	out := make([]graph.Path, len(pairs))
	return out, searchPairs(ctx, v, pairs, want, expand, func(pi int, dst int32, st *graph.SearchState) {
		out[pi], _ = st.Path(dst)
	})
}
