package flow

import (
	"fmt"

	"leosim/internal/graph"
)

// DirectedEdges converts a routed path on a network into the directed-edge
// IDs a Problem uses: each undirected link li yields edges 2·li (A→B) and
// 2·li+1 (B→A). Both directions of a link carry the full link capacity
// (full-duplex), matching the paper's capacity model.
func DirectedEdges(n *graph.Network, p graph.Path) ([]int32, error) {
	if len(p.Nodes) != len(p.Links)+1 {
		return nil, fmt.Errorf("flow: malformed path: %d nodes, %d links",
			len(p.Nodes), len(p.Links))
	}
	out := make([]int32, len(p.Links))
	for i, li := range p.Links {
		l := n.Links[li]
		u := p.Nodes[i]
		switch u {
		case l.A:
			out[i] = 2 * li
		case l.B:
			out[i] = 2*li + 1
		default:
			return nil, fmt.Errorf("flow: path node %d not on link %d", u, li)
		}
	}
	return out, nil
}
