package graph

import "slices"

// Cut is a set of one network's links by index, sorted ascending without
// repeats: the links a fault mask removes from a healthy snapshot. It stands
// for the masked network without materializing it. The masked network's CSR
// lists each node's surviving arcs in its parent's link order, so a search of
// the parent that skips the cut relaxes the same arcs in the same order and
// settles bit-identically (DESIGN.md §7). Paths found that way carry the
// parent's link indices.
type Cut []int32

// Has reports whether link li is in the cut.
func (c Cut) Has(li int32) bool {
	_, found := slices.BinarySearch(c, li)
	return found
}

// Severs reports whether the cut removes a hop of p, a path of the cut's
// network. A path it does not sever is a path of the masked network.
func (c Cut) Severs(p Path) bool {
	for _, li := range p.Links {
		if c.Has(li) {
			return true
		}
	}
	return false
}

// Ban adds the cut's links to st's bans.
func (c Cut) Ban(st *SearchState) {
	for _, li := range c {
		st.BanLink(li)
	}
}

// View is network N without the links of Cut, never materialized: what a
// served what-if asks its questions of. A View with no cut is N itself.
type View struct {
	N   *Network
	Cut Cut
}

// Search runs the kernel over the view: N with the cut added to st's bans.
func (v View) Search(st *SearchState, spec SearchSpec) bool {
	v.Cut.Ban(st)
	return v.N.Search(st, spec)
}

// Components labels the view's connected components (ignoring capacities)
// and returns the component ID per node and the component count. IDs are
// numbered in order of each component's lowest node.
func (v View) Components() (comp []int32, count int) {
	n := v.N
	n.ensureCSR()
	var cut []bool
	if len(v.Cut) > 0 {
		cut = make([]bool, len(n.Links))
		for _, li := range v.Cut {
			cut[li] = true
		}
	}
	nn := n.N()
	comp = make([]int32, nn)
	for i := range comp {
		comp[i] = -1
	}
	var stack []int32
	for s := 0; s < nn; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := int32(count)
		count++
		stack = append(stack[:0], int32(s))
		comp[s] = id
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range n.adjEdges[n.adjStart[u]:n.adjStart[u+1]] {
				if comp[e.To] < 0 && (cut == nil || !cut[e.Link]) {
					comp[e.To] = id
					stack = append(stack, e.To)
				}
			}
		}
	}
	return comp, count
}
