// Package routing implements routing schemes beyond shortest-path — in
// particular the minimum-maximum-utilization scheme §5 flags as future work
// ("A routing scheme that minimizes the maximum utilization, for example,
// can offer higher throughput, albeit at the cost of increased latency").
//
// The scheme is a greedy traffic-engineering heuristic: demands are routed
// one sub-flow at a time over the path minimizing a congestion-aware cost,
// where each link's cost grows with its current utilization. This spreads
// load off hot links, raising aggregate max-min throughput relative to pure
// shortest-delay multipath at some latency cost — exactly the trade-off the
// paper predicts.
package routing

import (
	"fmt"
	"math"
	"sort"

	"leosim/internal/graph"
)

// Demand is one unit of traffic to route: k sub-flows from Src to Dst.
type Demand struct {
	Src, Dst int32
	K        int
}

// Assignment is the routing outcome for one demand.
type Assignment struct {
	Demand Demand
	Paths  []graph.Path
}

// The router's parameters mirror the paper's setup.
const (
	// alpha scales the congestion penalty: a link's routing cost is
	// delay · (1 + alpha·utilization²).
	alpha = 8
	// unitGbps is the nominal rate each sub-flow contributes to link
	// utilization while routing (the allocator later decides true rates).
	unitGbps = 1
)

// MinMaxUtilization routes all demands over network n with congestion-aware
// costs and returns the per-demand assignments. The K sub-flows of one demand
// take edge-disjoint paths, as in the paper's baseline scheme. Demands are
// processed in decreasing-K then input order (deterministic).
func MinMaxUtilization(n *graph.Network, demands []Demand) ([]Assignment, error) {
	load := make([]float64, len(n.Links)) // nominal Gbps per undirected link

	cost := func(li int32) float64 {
		l := n.Links[li]
		if l.CapGbps <= 0 {
			return math.Inf(1)
		}
		u := load[li] / l.CapGbps
		return l.OneWayMs * (1 + alpha*u*u)
	}

	order := make([]int, len(demands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return demands[order[a]].K > demands[order[b]].K
	})

	out := make([]Assignment, len(demands))
	st := graph.AcquireSearch()
	defer st.Release()
	for _, di := range order {
		d := demands[di]
		if d.K < 1 {
			return nil, fmt.Errorf("routing: demand %d has K=%d", di, d.K)
		}
		asg := Assignment{Demand: d}
		st.ClearBans()
		for k := 0; k < d.K; k++ {
			// The shared kernel with the congestion-aware cost hook: Dist
			// accumulates cost, extracted paths report true delay.
			n.Search(st, graph.SearchSpec{Src: d.Src, Target: d.Dst, Cost: cost})
			p, ok := st.Path(d.Dst)
			if !ok {
				break
			}
			asg.Paths = append(asg.Paths, p)
			for _, li := range p.Links {
				load[li] += unitGbps
				st.BanLink(li)
			}
		}
		out[di] = asg
	}
	return out, nil
}

// MaxUtilization reports the highest nominal link utilization implied by the
// assignments at unitGbps per sub-flow — the quantity the scheme minimizes.
func MaxUtilization(n *graph.Network, asgs []Assignment) float64 {
	load := make([]float64, len(n.Links))
	for _, a := range asgs {
		for _, p := range a.Paths {
			for _, li := range p.Links {
				load[li] += unitGbps
			}
		}
	}
	max := 0.0
	for li, l := range n.Links {
		if l.CapGbps <= 0 {
			continue
		}
		if u := load[li] / l.CapGbps; u > max {
			max = u
		}
	}
	return max
}

// MeanPathDelayMs returns the mean one-way delay across all routed sub-flow
// paths — the latency cost of traffic engineering.
func MeanPathDelayMs(asgs []Assignment) float64 {
	var sum float64
	var n int
	for _, a := range asgs {
		for _, p := range a.Paths {
			sum += p.OneWayMs
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
