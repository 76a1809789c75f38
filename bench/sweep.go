package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"leosim"
	"leosim/internal/core"
	"leosim/internal/flow"
	"leosim/internal/graph"
	"leosim/internal/snapcache"
)

// roundOut is what one sweep round produced.
type roundOut struct {
	envelope []byte // the WriteJSON bytes a CLI user would get
	answers  int    // RTTs or path sets computed
	res      any    // the Run* result, for the traced comparison
	cache    snapcache.Stats
}

// sweepRound runs one CLI-shaped round of a sweep workload: a fresh NewSim,
// the experiment, the JSON envelope.
func sweepRound(ctx context.Context, workload string, sc core.Scale) (*roundOut, error) {
	sim, err := leosim.NewSim(leosim.Starlink, sc)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	out := &roundOut{}
	switch workload {
	case "sweep-fig2a":
		r, err := leosim.RunLatency(ctx, sim)
		if err != nil {
			return nil, err
		}
		out.res, out.answers = r, 2*sc.NumSnapshots*len(sim.Pairs)
		err = leosim.WriteJSON(&buf, "fig2a", sim, r)
		if err != nil {
			return nil, err
		}
	case "sweep-fig4":
		rows, err := leosim.RunFig4(ctx, sim)
		if err != nil {
			return nil, err
		}
		out.res, out.answers = rows, len(rows)*len(sim.Pairs)
		err = leosim.WriteJSON(&buf, "fig4", sim, rows)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("not a sweep workload: %s", workload)
	}
	out.envelope, out.cache = buf.Bytes(), sim.NetworkCacheStats()
	return out, nil
}

// sweepRounds runs rounds until dur has passed (at least one), checking each
// round's envelope against the reference bytes, and returns each round's
// wall-clock in seconds.
func sweepRounds(ctx context.Context, r *result, workload string, sc core.Scale, reference []byte, dur time.Duration) (roundS []float64) {
	start := time.Now()
	for len(roundS) == 0 || time.Since(start) < dur {
		t0 := time.Now()
		out, err := sweepRound(ctx, workload, sc)
		roundS = append(roundS, time.Since(t0).Seconds())
		r.Attempted++
		switch {
		case err != nil:
			r.fail("round %d: %v", len(roundS), err)
		case !bytes.Equal(out.envelope, reference):
			r.fail("round %d: output differs from round 1", len(roundS))
		}
	}
	return roundS
}

func digest(data []byte) string { return fmt.Sprintf("sha256:%x", sha256.Sum256(data)) }

// fanOut runs fn(worker, i) for i in [0, n) on GOMAXPROCS goroutines, the
// same width core's own fan-outs use.
func fanOut(n int, fn func(worker, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 1; w <= runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// sweepCounts are the per-round call counts the re-enactment observes.
type sweepCounts struct {
	searchTrees, kdisjoint, flows int
}

// reenactFig2a replays RunLatency's round through the public layer calls —
// NewSim, one Walker step per (snapshot, mode), one full shortest-path tree
// per source city — with a span around each, and returns the per-pair
// minimum and range RTTs shaped exactly like LatencyResult's.
func reenactFig2a(tr *tracer, op int64, sc core.Scale) (minRTT, rangeRTT map[core.Mode][]float64, counts sweepCounts, err error) {
	root := tr.begin("round", op, 0, -1)
	defer tr.end(root)

	sp := tr.begin("core.newsim", op, 0, root)
	sim, err := leosim.NewSim(leosim.Starlink, sc)
	tr.end(sp)
	if err != nil {
		return nil, nil, counts, err
	}
	modes := []core.Mode{core.BP, core.Hybrid}
	nPairs := len(sim.Pairs)
	bySrc := map[int][]int{}
	for pi, p := range sim.Pairs {
		bySrc[p.Src] = append(bySrc[p.Src], pi)
	}
	sources := make([]int, 0, len(bySrc))
	for src := range bySrc {
		sources = append(sources, src)
	}
	lo, hi := map[core.Mode][]float64{}, map[core.Mode][]float64{}
	walk := map[core.Mode]*core.Walker{}
	for _, m := range modes {
		lo[m], hi[m] = make([]float64, nPairs), make([]float64, nPairs)
		for i := range lo[m] {
			lo[m][i], hi[m][i] = math.Inf(1), math.Inf(-1)
		}
		walk[m] = sim.NewWalker(m)
	}
	reachable := make([]bool, nPairs)
	for i := range reachable {
		reachable[i] = true
	}
	rtts := make([]float64, nPairs)
	for _, t := range sim.SnapshotTimes() {
		for _, m := range modes {
			sp := tr.begin("graph.walker_step", op, 0, root)
			n := walk[m].At(t)
			tr.end(sp)

			fan := tr.begin("search_fanout", op, 0, root)
			fanOut(len(sources), func(worker, i int) {
				src := sources[i]
				sp := tr.begin("graph.search_tree", op, worker, fan)
				st := graph.AcquireSearch()
				n.Search(st, graph.SearchSpec{Src: n.CityNode(src), Target: graph.NoTarget})
				for _, pi := range bySrc[src] {
					rtts[pi] = 2 * st.Dist(n.CityNode(sim.Pairs[pi].Dst))
				}
				st.Release()
				tr.end(sp)
			})
			tr.end(fan)
			counts.searchTrees += len(sources)

			sp = tr.begin("aggregate", op, 0, root)
			for i, rtt := range rtts {
				if math.IsInf(rtt, 1) {
					reachable[i] = false
					continue
				}
				lo[m][i], hi[m][i] = min(lo[m][i], rtt), max(hi[m][i], rtt)
			}
			tr.end(sp)
		}
	}
	minRTT, rangeRTT = map[core.Mode][]float64{}, map[core.Mode][]float64{}
	for i := 0; i < nPairs; i++ {
		if !reachable[i] {
			continue
		}
		for _, m := range modes {
			minRTT[m] = append(minRTT[m], lo[m][i])
			rangeRTT[m] = append(rangeRTT[m], hi[m][i]-lo[m][i])
		}
	}
	return minRTT, rangeRTT, counts, nil
}

// reenactFig4 replays RunFig4's round: one build per mode, k edge-disjoint
// paths per pair for k ∈ {1, 4}, the allocation problem, the max-min solve.
func reenactFig4(ctx context.Context, tr *tracer, op int64, sc core.Scale) (rows []core.Fig4Row, counts sweepCounts, err error) {
	root := tr.begin("round", op, 0, -1)
	defer tr.end(root)

	sp := tr.begin("core.newsim", op, 0, root)
	sim, err := leosim.NewSim(leosim.Starlink, sc)
	tr.end(sp)
	if err != nil {
		return nil, counts, err
	}
	t := sim.SnapshotTimes()[0]
	for _, mode := range []core.Mode{core.BP, core.Hybrid} {
		sp := tr.begin("graph.build_at", op, 0, root)
		n, err := sim.BuildNetworkAt(ctx, t, mode, nil)
		tr.end(sp)
		if err != nil {
			return nil, counts, err
		}
		for _, k := range []int{1, 4} {
			paths := make([][]graph.Path, len(sim.Pairs))
			fan := tr.begin("kdisjoint_fanout", op, 0, root)
			fanOut(len(sim.Pairs), func(worker, i int) {
				sp := tr.begin("graph.kdisjoint", op, worker, fan)
				p := sim.Pairs[i]
				paths[i] = n.KDisjointPaths(n.CityNode(p.Src), n.CityNode(p.Dst), k)
				tr.end(sp)
			})
			tr.end(fan)
			counts.kdisjoint += len(sim.Pairs)

			sp := tr.begin("flow.problem_build", op, 0, root)
			pr, err := buildProblem(n, sim.SatCapGbps, paths)
			tr.end(sp)
			if err != nil {
				return nil, counts, err
			}
			counts.flows += pr.NumFlows()

			sp = tr.begin("flow.maxmin", op, 0, root)
			alloc, err := pr.MaxMinFair()
			tr.end(sp)
			if err != nil {
				return nil, counts, err
			}
			rows = append(rows, core.Fig4Row{Constellation: sim.Choice, Mode: mode, K: k, AggregateGbps: flow.Sum(alloc)})
		}
	}
	return rows, counts, nil
}

// buildProblem registers every found path as a flow, in pair order — the
// order core's throughput model uses, which fixes the float summation.
func buildProblem(n *graph.Network, satCapGbps float64, paths [][]graph.Path) (*flow.NetworkProblem, error) {
	pr := flow.NewNetworkProblem(n, satCapGbps)
	for _, pp := range paths {
		for _, p := range pp {
			if _, err := pr.AddPath(p); err != nil {
				return nil, err
			}
		}
	}
	return pr, nil
}

// tracedSweep is the traced pass of a sweep workload: untraced real rounds
// for the reference timing and result, then re-enacted rounds under the
// tracer, whose results must equal the real ones exactly.
func tracedSweep(ctx context.Context, r *result, workload string, sc core.Scale, dur time.Duration, tr *tracer) error {
	first, err := sweepRound(ctx, workload, sc)
	if err != nil {
		return err
	}
	r.ResultDigest = digest(first.envelope)
	realS := sweepRounds(ctx, r, workload, sc, first.envelope, dur/2)

	var tracedS []float64
	var counts sweepCounts
	start := time.Now()
	for op := int64(1); len(tracedS) == 0 || time.Since(start) < dur/2; op++ {
		t0 := time.Now()
		r.Attempted++
		switch workload {
		case "sweep-fig2a":
			minRTT, rangeRTT, c, err := reenactFig2a(tr, op, sc)
			if err != nil {
				return err
			}
			counts = c
			want := first.res.(*core.LatencyResult)
			for _, m := range []core.Mode{core.BP, core.Hybrid} {
				if !slices.Equal(minRTT[m], want.MinRTT[m]) || !slices.Equal(rangeRTT[m], want.RangeRTT[m]) {
					r.fail("re-enacted fig2a round %d: %s per-pair RTTs differ from RunLatency", op, m)
				}
			}
		case "sweep-fig4":
			rows, c, err := reenactFig4(ctx, tr, op, sc)
			if err != nil {
				return err
			}
			counts = c
			if want := first.res.([]core.Fig4Row); !slices.Equal(rows, want) {
				r.fail("re-enacted fig4 round %d: aggregates %v differ from RunFig4 %v", op, rows, want)
			}
		}
		tracedS = append(tracedS, time.Since(t0).Seconds())
	}
	r.check(r.Failed == 0, "re-enactment through public layer calls reproduces %s exactly (%d rounds)", workload, len(tracedS))
	r.set("trace.overhead_share", "ratio", (median(tracedS)-median(realS))/median(realS))

	r.set("graph.search_tree_count", "count", float64(counts.searchTrees))
	r.set("graph.kdisjoint_count", "count", float64(counts.kdisjoint))
	r.set("flow.flows", "count", float64(counts.flows))
	// The sim's own snapshot cache: RunFig4 reads each mode's network twice
	// (k=1, k=4); RunLatency walks and never touches it.
	r.set("snapcache.hit_ratio", "ratio", first.cache.HitRate())
	r.set("snapcache.builds", "count", float64(first.cache.Builds))
	r.set("snapcache.evictions", "count", float64(first.cache.Evictions))
	return nil
}
