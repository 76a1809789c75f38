package flow

import (
	"fmt"
	"math"

	"leosim/internal/graph"
)

// MaxFlowNet is a directed flow network solved with Dinic's algorithm. It
// backs the capacity-oriented experiments (Fig 11's "distributed GTs"),
// where the question is how much traffic *can* enter the constellation from
// a metro — a quantity that, unlike shortest-path max-min throughput, is
// monotone in added links, so fiber augmentation can never look harmful by
// a routing artifact.
type MaxFlowNet struct {
	head []int32   // first arc per node (-1)
	next []int32   // next arc in node's list
	to   []int32   // arc head
	cap_ []float64 // residual capacity

	level []int32
	iter  []int32
}

// NewMaxFlowNet creates a network with n nodes and no arcs.
func NewMaxFlowNet(n int) *MaxFlowNet {
	h := make([]int32, n)
	for i := range h {
		h[i] = -1
	}
	return &MaxFlowNet{head: h}
}

// AddNode appends a node and returns its index.
func (m *MaxFlowNet) AddNode() int32 {
	m.head = append(m.head, -1)
	return int32(len(m.head) - 1)
}

// AddArc inserts a directed arc u→v with the given capacity (and its zero-
// capacity reverse arc for the residual network).
func (m *MaxFlowNet) AddArc(u, v int32, capacity float64) {
	m.pushArc(u, v, capacity)
	m.pushArc(v, u, 0)
}

// AddEdge inserts both directions with the full capacity each (a full-duplex
// link).
func (m *MaxFlowNet) AddEdge(u, v int32, capacity float64) {
	m.pushArc(u, v, capacity)
	m.pushArc(v, u, capacity)
}

func (m *MaxFlowNet) pushArc(u, v int32, c float64) {
	m.to = append(m.to, v)
	m.cap_ = append(m.cap_, c)
	m.next = append(m.next, m.head[u])
	m.head[u] = int32(len(m.to) - 1)
}

// Solve computes the maximum s→t flow (Dinic). The network's residual
// capacities are consumed; call on a fresh build per query.
func (m *MaxFlowNet) Solve(s, t int32) (float64, error) {
	n := len(m.head)
	if int(s) >= n || int(t) >= n || s < 0 || t < 0 {
		return 0, fmt.Errorf("flow: source/sink out of range")
	}
	if s == t {
		return 0, fmt.Errorf("flow: source equals sink")
	}
	m.level = make([]int32, n)
	m.iter = make([]int32, n)
	var total float64
	for m.bfs(s, t) {
		copy(m.iter, m.head)
		for {
			f := m.dfs(s, t, math.Inf(1))
			if f <= 0 {
				break
			}
			total += f
		}
	}
	return total, nil
}

func (m *MaxFlowNet) bfs(s, t int32) bool {
	for i := range m.level {
		m.level[i] = -1
	}
	queue := make([]int32, 0, len(m.level))
	queue = append(queue, s)
	m.level[s] = 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for a := m.head[u]; a >= 0; a = m.next[a] {
			v := m.to[a]
			if m.cap_[a] > 1e-12 && m.level[v] < 0 {
				m.level[v] = m.level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return m.level[t] >= 0
}

func (m *MaxFlowNet) dfs(u, t int32, f float64) float64 {
	if u == t {
		return f
	}
	for ; m.iter[u] >= 0; m.iter[u] = m.next[m.iter[u]] {
		a := m.iter[u]
		v := m.to[a]
		if m.cap_[a] > 1e-12 && m.level[v] == m.level[u]+1 {
			d := m.dfs(v, t, math.Min(f, m.cap_[a]))
			if d > 0 {
				m.cap_[a] -= d
				m.cap_[a^1] += d // paired reverse arc
				return d
			}
		}
	}
	return 0
}

// BuildMaxFlow converts a snapshot network into a max-flow instance with the
// same capacity semantics as NetworkProblem: every link is full-duplex at
// CapGbps, and when satPoolGbps > 0 each satellite's ground-facing traffic
// passes through an uplink gate (terminal→satellite) and a downlink gate
// (satellite→terminal) of that capacity, while ISLs attach to the satellite
// node directly. It returns the instance and the mapping from network node
// to max-flow node.
func BuildMaxFlow(n *graph.Network, satPoolGbps float64) (*MaxFlowNet, []int32) {
	m := NewMaxFlowNet(n.N())
	nodeOf := make([]int32, n.N())
	for i := range nodeOf {
		nodeOf[i] = int32(i)
	}

	var upGate, dnGate []int32
	if satPoolGbps > 0 {
		upGate = make([]int32, n.NumSat)
		dnGate = make([]int32, n.NumSat)
		for s := 0; s < n.NumSat; s++ {
			upGate[s] = m.AddNode()
			dnGate[s] = m.AddNode()
			// gate → satellite (uplink pool), satellite → gate (downlink).
			m.AddArc(upGate[s], int32(s), satPoolGbps)
			m.AddArc(int32(s), dnGate[s], satPoolGbps)
		}
	}

	for _, l := range n.Links {
		switch {
		case l.Kind != graph.LinkGSL || satPoolGbps <= 0:
			m.AddEdge(l.A, l.B, l.CapGbps)
		default:
			term, sat := l.A, l.B
			if n.Kind[term] == graph.NodeSatellite {
				term, sat = sat, term
			}
			// Terminal → up gate → satellite, and satellite → down gate
			// → terminal, each leg at link capacity; the gate arcs cap
			// the per-satellite aggregate.
			m.AddArc(term, upGate[sat], l.CapGbps)
			m.AddArc(dnGate[sat], term, l.CapGbps)
		}
	}
	return m, nodeOf
}
