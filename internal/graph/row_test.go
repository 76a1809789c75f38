package graph

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"leosim/internal/geo"
)

// TestTreeRowBound holds a city's tree row, as an oracle stores it — the full
// tree from the city on the relay overlay, over the satellites and cities
// only — to the CSR kernel's full tree from that city, on every node of the
// tiny and reduced presets' snapshot 0, bent-pipe and hybrid: the distance
// the row directs a search by (treeDist) is the kernel's Dist under
// math.Float64bits at every satellite and city — the nodes of the row, the
// only ones a tree-directed search queues — and the tree bound is that
// distance scaled by the slack; walking the row to every node of it gives the
// kernel's Path, weighing the kernel's Dist bit for bit, and the walks pass
// through relays and aircraft.
func TestTreeRowBound(t *testing.T) {
	presets := []struct {
		name  string
		build func(testing.TB) *Builder
		every int // the cities rooted at: every every-th one
	}{{"tiny", tinyBuilder, 1}, {"reduced", reducedBuilder, 7}}
	for _, p := range presets {
		if p.name == "reduced" && testing.Short() {
			continue
		}
		b := p.build(t)
		bp := b.At(geo.Epoch)
		for _, n := range []*Network{bp, b.Hybrid(bp, geo.Epoch)} {
			tag := fmt.Sprintf("%s/%d links", p.name, len(n.Links))
			rn := n.RowNodes()
			if rn != n.NumSat+n.NumCity || rn >= n.N() {
				t.Fatalf("%s: rows of %d nodes, want the %d satellites and cities of %d", tag, rn, n.NumSat+n.NumCity, n.N())
			}
			ov := NewOverlay(n, n.NumCity)
			st, ref, dir := AcquireSearch(), AcquireSearch(), AcquireSearch()
			row := make([]int32, rn)
			kinds, tagged := map[NodeKind]int{}, 0
			for c := 0; c < n.NumCity; c += p.every {
				root := n.CityNode(c)
				ov.Search(st, SearchSpec{Src: root, Target: NoTarget})
				st.TreeRow(row)
				n.Search(ref, SearchSpec{Src: root, Target: NoTarget})
				dir.begin(n, SearchSpec{Src: root, Target: root})
				dir.goal = root
				dir.directByTree(row)
				for v := range int32(rn) {
					d := ref.Dist(v)
					if got := dir.treeDist(v); math.Float64bits(got) != math.Float64bits(d) {
						t.Fatalf("%s, city %d: %v node %d at tree distance %v, kernel %v", tag, c, n.Kind[v], v, got, d)
					}
					if got := dir.treeBound(v); math.Float64bits(got) != math.Float64bits(d*treeScale) {
						t.Fatalf("%s, city %d: node %d's bound %v, want %v", tag, c, v, got, d*treeScale)
					}
					if row[v] < -1 {
						tagged++
					}
					want, wantOK := ref.Path(v)
					got, ok := n.WalkRow(row, root, v)
					if ok != wantOK || !slices.Equal(got.Nodes, want.Nodes) || !slices.Equal(got.Links, want.Links) {
						t.Fatalf("%s, city %d: walked %v over %v (ok=%v), kernel %v over %v (ok=%v)",
							tag, c, got.Nodes, got.Links, ok, want.Nodes, want.Links, wantOK)
					}
					if ok && math.Float64bits(got.OneWayMs) != math.Float64bits(d) {
						t.Fatalf("%s, city %d: the walk to %d weighs %v ms, the kernel's label is %v", tag, c, v, got.OneWayMs, d)
					}
					requirePathWeighs(t, tag, ref, v, false)
					for _, x := range got.Nodes {
						kinds[n.Kind[x]]++
					}
				}
			}
			st.Release()
			ref.Release()
			dir.Release()
			if tagged == 0 || len(kinds) != 4 {
				t.Fatalf("%s: %d tagged entries, node kinds %v: the rows never went through a forwarder", tag, tagged, kinds)
			}
		}
	}
}

// TestRowNodes pins which networks store rows over their satellites and
// cities: a built network's forwarders join satellites only, each by one link;
// a forwarder that touches a city or another forwarder, or links one
// satellite twice, makes the rows cover every node.
func TestRowNodes(t *testing.T) {
	n := phase1Builder(t).At(geo.Epoch)
	if got := n.RowNodes(); got != n.NumSat+n.NumCity || got == n.N() {
		t.Fatalf("a built network's rows have %d nodes, want %d of %d", got, n.NumSat+n.NumCity, n.N())
	}
	relay := int32(n.NumSat + n.NumCity)
	sat := n.Edges(relay)[0].To
	for name, link := range map[string][2]int32{
		"relay–city":  {relay, n.CityNode(0)},
		"relay–relay": {relay, relay + 1},
		"parallel":    {relay, sat},
	} {
		c := n.Clone()
		c.AddLink(link[0], link[1], LinkGSL, 1)
		if got := c.RowNodes(); got != c.N() {
			t.Fatalf("%s: rows of %d nodes, want all %d", name, got, c.N())
		}
	}
}
