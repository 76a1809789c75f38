package graph

// Tree rows (DESIGN.md §7, "Oracle rows keep only what is read"). A tree row
// is a full shortest-path tree in the layout an oracle stores and
// SearchSpec.Tree reads: one int32 per node of the prefix [0, len(row)) of
// the network's layout. In a network whose forwarders — its relays and
// aircraft, the nodes past NumSat+NumCity — join satellites only, each by one
// link, the prefix is the satellites and cities (RowNodes): a forwarder only
// hands a label from one satellite to the next, so its predecessor is
// recorded at the satellite it hands the label to. Entry v is then
//
//   - v's predecessor link, where that link's far end lies in the prefix;
//   - -2 - l₁, a tagged entry, where it is a forwarder r outside the prefix:
//     l₁ is r's own predecessor link, from a satellite, and the link r–v is
//     the one link joining them, found on r's CSR row;
//   - -1 at the root and at nodes the tree does not reach.
//
// In any other network the prefix is every node, and no entry is tagged.

// forwarding inspects n's forwarders, the nodes at or above NumSat+NumCity
// (the relays and aircraft of a built network), over its frozen CSR. ok
// reports whether every one links satellites only, as in every built network;
// ascending whether each lists them in ascending order, as the Builder lays
// them out; simple whether none links one satellite twice. It is what the
// relay overlay and tree rows both admit a network by.
func (n *Network) forwarding() (ok, ascending, simple bool) {
	ns, on := int32(n.NumSat), int32(n.NumSat+n.NumCity)
	if n.NumSat < 0 || n.NumCity < 0 || int(on) > n.N() {
		return false, false, false
	}
	ascending, simple = true, true
	for r := on; r < int32(n.N()); r++ {
		row := n.adjEdges[n.adjStart[r]:n.adjStart[r+1]]
		for j, e := range row {
			if e.To >= ns { // a forwarder with a neighbour that is not a satellite
				return false, false, false
			}
			if j > 0 && e.To < row[j-1].To {
				ascending = false
			}
			for i := j - 1; simple && i >= 0; i-- {
				if row[i].To == e.To {
					simple = false
				} else if ascending && row[i].To < e.To {
					break
				}
			}
		}
	}
	return true, ascending, simple
}

// RowNodes returns the length of n's tree rows: NumSat+NumCity where every
// forwarder of n links satellites only, each by one link, as in every built
// network, and N() otherwise. The verdict is taken once per CSR freeze.
func (n *Network) RowNodes() int {
	if r := n.rows.Load(); r > 0 {
		return int(r - 1)
	}
	n.ensureCSR()
	rn := n.N()
	if ok, _, simple := n.forwarding(); ok && simple {
		rn = n.NumSat + n.NumCity
	}
	n.rows.Store(int32(rn + 1))
	return rn
}

// rowOf reports whether row has the length of a tree row of n: RowNodes(),
// or N(), the layout of a network whose rows skip no node, which every
// network reads alike.
func (n *Network) rowOf(row []int32) bool {
	return row != nil && (len(row) == n.N() || len(row) == n.RowNodes())
}

// TreeRow writes the tree of st's last search into row, of n.RowNodes() or
// N() entries: a full tree (no Target, no Targets) from a node of the row. A
// search on the relay overlay derives the predecessor of a forwarder only
// where it precedes a satellite.
func (st *SearchState) TreeRow(row []int32) {
	links, rn := st.net.Links, int32(len(row))
	for v := range rn {
		li := st.PrevLink(v)
		if li >= 0 {
			if l := links[li]; l.A+l.B-v >= rn {
				li = -2 - st.PrevLink(l.A+l.B-v)
			}
		}
		row[v] = li
	}
}

// rowHop decodes row's entry at v as a back-walk's step (Network.walk): the
// link into v (-1 at the root and where the row does not reach v), or for a
// tagged entry the link l₁ into its forwarder r, with rv the link r–v (-1
// otherwise).
func (n *Network) rowHop(row []int32, v int32) (li, rv int32) {
	if e := row[v]; e >= -1 {
		return e, -1
	}
	li = -2 - row[v]
	_, r := n.forwarderEnds(li)
	for k := n.adjStart[r]; k < n.adjStart[r+1]; k++ {
		if e := n.adjEdges[k]; e.To == v {
			return li, e.Link
		}
	}
	panic("graph: a tagged tree-row entry names a forwarder not linked to its node")
}

// RowParent returns v's parent on the walk of row towards its root — v's
// predecessor, or through a forwarder outside the row, that forwarder's — and
// the links between them, 1 or 2; (-1, 0) at the root and where the row does
// not reach v.
func (n *Network) RowParent(row []int32, v int32) (p int32, links int) {
	switch e := row[v]; {
	case e >= 0:
		l := n.Links[e]
		return l.A + l.B - v, 1
	case e == -1:
		return -1, 0
	default:
		s, _ := n.forwarderEnds(-2 - e)
		return s, 2
	}
}

// forwarderEnds returns the ends of a tagged entry's link, a satellite s in
// the row and the forwarder r past it.
func (n *Network) forwarderEnds(li int32) (s, r int32) {
	l := n.Links[li]
	if l.A < l.B {
		return l.A, l.B
	}
	return l.B, l.A
}

// WalkRow reconstructs the path from src, the root of row, to dst: the
// kernel's own path, node for node and link for link, forwarders included,
// weighing the sum of its links as the kernel's label does. ok is false
// where the row does not reach dst.
func (n *Network) WalkRow(row []int32, src, dst int32) (Path, bool) {
	return n.walk(src, dst, func(v int32) (int32, int32) { return n.rowHop(row, v) })
}
