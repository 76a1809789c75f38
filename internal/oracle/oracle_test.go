package oracle

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"leosim/internal/core"
	"leosim/internal/fault"
	"leosim/internal/geo"
	"leosim/internal/graph"
	"leosim/internal/topo"
)

// Sims are cached per (motif, scale): constellation construction dominates
// test time, and every test only reads the sim.
var (
	simMu   sync.Mutex
	simPool = map[string]*core.Sim{}
)

func motifSim(t testing.TB, id topo.ID, scale core.Scale, scaleName string) *core.Sim {
	t.Helper()
	key := string(id) + "/" + scaleName
	simMu.Lock()
	defer simMu.Unlock()
	if s, ok := simPool[key]; ok {
		return s
	}
	s, err := core.NewSim(core.Starlink, scale, core.WithMotifID(id))
	if err != nil {
		t.Fatalf("NewSim(%s): %v", id, err)
	}
	simPool[key] = s
	return s
}

// outagesFor realizes a "scenario:fraction:seed" fault fingerprint against
// sim — the same deterministic realization the serving layer uses.
func outagesFor(t testing.TB, s *core.Sim, mask string) *fault.Outages {
	t.Helper()
	if mask == "" {
		return nil
	}
	parts := strings.Split(mask, ":")
	frac, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.ForScenario(fault.Scenario(parts[0]), frac, seed)
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.RealizeAt(s.Const, len(s.Seg.Terminals), s.SnapshotTimes()[0])
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func buildNet(t testing.TB, s *core.Sim, mode core.Mode, mask string) *graph.Network {
	t.Helper()
	n, err := s.BuildNetworkAt(context.Background(), s.SnapshotTimes()[0], mode, outagesFor(t, s, mask))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func buildOracle(t testing.TB, n *graph.Network) *Oracle {
	t.Helper()
	o, err := Build(context.Background(), n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// kernelTree runs the reference full Dijkstra from city src — the exact
// computation the oracle's label row for src froze at build time.
func kernelTree(n *graph.Network, src int) *graph.SearchState {
	st := graph.AcquireSearch()
	n.Search(st, graph.SearchSpec{Src: n.CityNode(src), Target: graph.NoTarget})
	return st
}

// samePath requires byte-identical paths: same nodes, same links, same
// accumulated delay — the tie-break-exact guarantee Query documents.
func samePath(t *testing.T, label string, want, got graph.Path) {
	t.Helper()
	if math.Float64bits(want.OneWayMs) != math.Float64bits(got.OneWayMs) {
		t.Fatalf("%s: delay %v != kernel %v", label, got.OneWayMs, want.OneWayMs)
	}
	if len(want.Nodes) != len(got.Nodes) || len(want.Links) != len(got.Links) {
		t.Fatalf("%s: shape (%d nodes, %d links) != kernel (%d nodes, %d links)",
			label, len(got.Nodes), len(got.Links), len(want.Nodes), len(want.Links))
	}
	for i := range want.Nodes {
		if want.Nodes[i] != got.Nodes[i] {
			t.Fatalf("%s: node[%d] = %d != kernel %d", label, i, got.Nodes[i], want.Nodes[i])
		}
	}
	for i := range want.Links {
		if want.Links[i] != got.Links[i] {
			t.Fatalf("%s: link[%d] = %d != kernel %d", label, i, got.Links[i], want.Links[i])
		}
	}
}

// hopTableMatchesWalk checks the hop table against the tree walk it replaces:
// for every ordered city pair Hops is the link count of the path Query
// reconstructs, and 0 exactly where there is no path to count — disconnected
// pairs and the diagonal. The walked path, which weighs the sum of its links,
// weighs DistMs under math.Float64bits, and DistMs is +Inf exactly where there
// is none.
func hopTableMatchesWalk(t *testing.T, o *Oracle) {
	t.Helper()
	for src := 0; src < o.Sources(); src++ {
		for dst := 0; dst < o.Sources(); dst++ {
			p, ok := o.Query(src, dst)
			got := o.Hops(src, dst)
			if got != p.Hops() {
				t.Fatalf("pair %d→%d: Hops %d != walked path's %d", src, dst, got, p.Hops())
			}
			if (got == 0) != (!ok || src == dst) {
				t.Fatalf("pair %d→%d: Hops %d with reachable=%v", src, dst, got, ok)
			}
			if d := o.DistMs(src, dst); ok == math.IsInf(d, 1) || ok && math.Float64bits(p.OneWayMs) != math.Float64bits(d) {
				t.Fatalf("pair %d→%d: the walked path weighs %v ms (reachable=%v), DistMs %v", src, dst, p.OneWayMs, ok, d)
			}
		}
	}
}

// diffBattery runs the differential check for one built network: the hop
// table against the tree walk for every pair, then seeded random city pairs,
// oracle answers vs the live kernel, distances exact and paths byte-identical.
func diffBattery(t *testing.T, n *graph.Network, pairs int, seed int64) {
	o := buildOracle(t, n)
	hopTableMatchesWalk(t, o)
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < pairs; k++ {
		src := rng.Intn(n.NumCity)
		dst := rng.Intn(n.NumCity)
		if src == dst {
			continue
		}
		label := fmt.Sprintf("pair %d→%d", src, dst)
		st := kernelTree(n, src)
		want, reachable := st.Path(n.CityNode(dst))
		got, ok := o.Query(src, dst)
		if ok != reachable {
			t.Fatalf("%s: oracle reachable=%v, kernel says %v", label, ok, reachable)
		}
		if !reachable {
			if !math.IsInf(o.DistMs(src, dst), 1) {
				t.Fatalf("%s: disconnected pair has finite DistMs %v", label, o.DistMs(src, dst))
			}
			st.Release()
			continue
		}
		if d := o.DistMs(src, dst); math.Float64bits(d) != math.Float64bits(want.OneWayMs) {
			t.Fatalf("%s: DistMs %v != kernel %v", label, d, want.OneWayMs)
		}
		samePath(t, label, want, got)
		st.Release()
	}
}

// viewMatchesMasked holds the oracle of a what-if view — the healthy network
// with the mask's cut banned, as the server builds it — to the oracle of the
// materialized masked network, over every ordered city pair: DistMs to the
// bit, Hops, and Query's node sequence, hop for hop the same links (the
// view's carry the healthy network's ids). It also holds the two oracles'
// validity apart: the view's answers for its own view only, never for its
// parent's.
func viewMatchesMasked(t *testing.T, s *core.Sim, mode core.Mode, mask string) {
	t.Helper()
	healthy := buildNet(t, s, mode, "")
	masked := buildNet(t, s, mode, mask)
	cut := outagesFor(t, s, mask).Cut(healthy)
	view, err := Build(context.Background(), healthy, cut)
	if err != nil {
		t.Fatal(err)
	}
	want := buildOracle(t, masked)
	for src := 0; src < want.Sources(); src++ {
		for dst := 0; dst < want.Sources(); dst++ {
			label := fmt.Sprintf("pair %d→%d", src, dst)
			if got, w := view.DistMs(src, dst), want.DistMs(src, dst); got != w && !(math.IsInf(got, 1) && math.IsInf(w, 1)) {
				t.Fatalf("%s: view DistMs %v, masked network's %v", label, got, w)
			}
			if got, w := view.Hops(src, dst), want.Hops(src, dst); got != w {
				t.Fatalf("%s: view Hops %d, masked network's %d", label, got, w)
			}
			p, ok := view.Query(src, dst)
			q, wantOK := want.Query(src, dst)
			if ok != wantOK || p.OneWayMs != q.OneWayMs || len(p.Nodes) != len(q.Nodes) {
				t.Fatalf("%s: view path %v (ok=%v), masked network's %v (ok=%v)", label, p.Nodes, ok, q.Nodes, wantOK)
			}
			for i := range p.Nodes {
				if p.Nodes[i] != q.Nodes[i] {
					t.Fatalf("%s: view path %v, masked network's %v", label, p.Nodes, q.Nodes)
				}
			}
			for i, li := range p.Links {
				if cut.Has(li) || healthy.Links[li] != masked.Links[q.Links[i]] {
					t.Fatalf("%s: hop %d is healthy link %d, masked link %d", label, i, li, q.Links[i])
				}
			}
		}
	}
	if len(cut) > 0 && (view.Valid(&graph.View{N: healthy}) || !view.Valid(&graph.View{N: healthy, Cut: cut})) {
		t.Fatal("a what-if's oracle is valid for its parent's view, or not for its own")
	}
	if len(cut) > 0 && buildOracle(t, healthy).Valid(&graph.View{N: healthy, Cut: cut}) {
		t.Fatal("the healthy oracle is valid for a what-if's view")
	}
}

// TestOracleMatchesKernel is the core differential battery: every motif,
// both modes, fault masks including nonzero ones, tiny preset always and the
// reduced preset when not -short. Distances must be bit-identical and paths
// byte-identical to the live Dijkstra kernel, and the hop table equal to the
// walked paths' link counts. Each mask row also builds the oracle the server
// builds for that what-if, on the healthy network under the cut, and holds it
// to the masked network's (viewMatchesMasked).
func TestOracleMatchesKernel(t *testing.T) {
	masks := []string{"", "sat:0.1:1", "isl:0.2:2"}
	for _, id := range topo.IDs() {
		sim := motifSim(t, id, core.TinyScale(), "tiny")
		for _, mode := range []core.Mode{core.BP, core.Hybrid} {
			for mi, mask := range masks {
				name := fmt.Sprintf("%s/%s/mask=%s", id, mode, mask)
				t.Run(name, func(t *testing.T) {
					n := buildNet(t, sim, mode, mask)
					diffBattery(t, n, 30, int64(mi+1))
					if mask != "" {
						viewMatchesMasked(t, sim, mode, mask)
					}
				})
			}
		}
	}
	if testing.Short() {
		return
	}
	// Reduced preset: one motif is enough to exercise the larger graph —
	// the per-motif structure is covered above.
	sim := motifSim(t, topo.PlusGrid, core.ReducedScale(), "reduced")
	for _, mode := range []core.Mode{core.BP, core.Hybrid} {
		t.Run(fmt.Sprintf("reduced/%s", mode), func(t *testing.T) {
			n := buildNet(t, sim, mode, "sat:0.1:1")
			diffBattery(t, n, 20, 7)
			viewMatchesMasked(t, sim, mode, "sat:0.1:1")
		})
	}
}

// TestLabelSymmetry property-tests the undirected graph invariant: the
// delay labelled src→dst equals dst→src (to float-accumulation-order
// tolerance — the two trees sum the same path in opposite directions).
func TestLabelSymmetry(t *testing.T) {
	sim := motifSim(t, topo.PlusGrid, core.TinyScale(), "tiny")
	n := buildNet(t, sim, core.Hybrid, "")
	o := buildOracle(t, n)
	for src := 0; src < n.NumCity; src++ {
		for dst := src + 1; dst < n.NumCity; dst++ {
			a, b := o.DistMs(src, dst), o.DistMs(dst, src)
			if math.IsInf(a, 1) != math.IsInf(b, 1) {
				t.Fatalf("pair %d,%d: reachability asymmetric (%v vs %v)", src, dst, a, b)
			}
			if math.IsInf(a, 1) {
				continue
			}
			if diff := math.Abs(a - b); diff > 1e-9*(1+math.Abs(a)) {
				t.Fatalf("pair %d,%d: %v != %v (diff %v)", src, dst, a, b, diff)
			}
		}
	}
}

// TestMaskMonotonic property-tests fault monotonicity: removing links can
// only lengthen (or disconnect) city-pair distances, never shorten them — not
// by one ulp: a path of the masked graph is a path of the clean one, and the
// kernel's distance is the least left-to-right float sum over paths
// (DESIGN.md §7).
func TestMaskMonotonic(t *testing.T) {
	sim := motifSim(t, topo.PlusGrid, core.TinyScale(), "tiny")
	clean := buildOracle(t, buildNet(t, sim, core.BP, ""))
	masked := buildOracle(t, buildNet(t, sim, core.BP, "sat:0.3:5"))
	for src := 0; src < clean.Sources(); src++ {
		for dst := 0; dst < clean.Sources(); dst++ {
			if src == dst {
				continue
			}
			dc, dm := clean.DistMs(src, dst), masked.DistMs(src, dst)
			if !(dm >= dc) {
				t.Fatalf("pair %d→%d: masked distance %v shorter than clean %v", src, dst, dm, dc)
			}
		}
	}
}

// TestBuildValidity pins the lifecycle contract: an oracle is valid only for
// the exact network instance it was built from, under the same cut.
func TestBuildValidity(t *testing.T) {
	sim := motifSim(t, topo.PlusGrid, core.TinyScale(), "tiny")
	n1 := buildNet(t, sim, core.BP, "")
	n2 := n1.Clone()
	o := buildOracle(t, n1)
	if !o.Valid(&graph.View{N: n1}) {
		t.Fatal("oracle invalid for its own network")
	}
	if o.Valid(&graph.View{N: n2}) || o.Valid(nil) {
		t.Fatal("oracle valid for a different network instance")
	}
	if o.Valid(&graph.View{N: n1, Cut: graph.Cut{0}}) {
		t.Fatal("oracle of the whole network valid for a view with a cut")
	}
	st := o.Stats()
	if rn := n1.NumSat + n1.NumCity; st.Sources != n1.NumCity || st.Nodes != rn || rn >= n1.N() {
		t.Fatalf("stats %+v disagree with network (%d cities, rows over %d of %d nodes)", st, n1.NumCity, rn, n1.N())
	}
	// Bytes is the stored arrays exactly: a predecessor row per city over its
	// satellites and cities, and the city × city distance and hop tables.
	if want := int64(n1.NumCity)*int64(st.Nodes)*4 + int64(n1.NumCity)*int64(n1.NumCity)*(8+2); st.Bytes != want {
		t.Fatalf("Bytes = %d, want %d", st.Bytes, want)
	}
	if st.BuildDuration <= 0 {
		t.Fatalf("degenerate stats %+v", st)
	}
}

// TestTreeRow: an oracle of the whole network hands out each city's row —
// the kernel's full tree from that city over the satellites and cities — and
// every entry decodes back to the kernel's predecessor link: a plain entry is
// it; a tagged one, at a satellite the tree reaches through a forwarder r,
// names r's own predecessor, the kernel's derived one, and the one link
// joining r to the satellite is the satellite's. An oracle built under a cut
// hands out no row: its tree distances are no lower bound on the whole
// network, and a search directed by them could settle the target over a
// detour.
func TestTreeRow(t *testing.T) {
	sim := motifSim(t, topo.PlusGrid, core.TinyScale(), "tiny")
	for _, mode := range []core.Mode{core.BP, core.Hybrid} {
		n := buildNet(t, sim, mode, "")
		cut := outagesFor(t, sim, "sat:0.3:5").Cut(n)
		whole := buildOracle(t, n)
		cutOracle, err := Build(context.Background(), n, cut)
		if err != nil {
			t.Fatal(err)
		}
		rn := int32(n.NumSat + n.NumCity)
		tagged := 0
		for c := 0; c < n.NumCity; c++ {
			if cutOracle.Tree(c) != nil {
				t.Fatalf("%s: an oracle built under a cut handed out city %d's row", mode, c)
			}
			row, ref := whole.Tree(c), kernelTree(n, c)
			if len(row) != int(rn) {
				t.Fatalf("%s: city %d's row has %d entries, want the %d satellites and cities", mode, c, len(row), rn)
			}
			for v, e := range row {
				want := ref.PrevLink(int32(v))
				if e >= -1 {
					if e != want {
						t.Fatalf("%s: city %d's row has link %d at node %d, its kernel tree %d", mode, c, e, v, want)
					}
					continue
				}
				tagged++
				l1 := n.Links[-2-e]
				r := max(l1.A, l1.B)
				lv := n.Links[want]
				if r < rn || ref.PrevLink(r) != -2-e || lv.A+lv.B-int32(v) != r {
					t.Fatalf("%s: city %d's row tags node %d with forwarder %d's link %d; the kernel reaches it over link %d (%d–%d), the forwarder over %d",
						mode, c, v, r, -2-e, want, lv.A, lv.B, ref.PrevLink(r))
				}
				for _, x := range n.Edges(r) {
					if x.To == int32(v) && x.Link != want {
						t.Fatalf("%s: forwarder %d has a second link %d to node %d", mode, r, x.Link, v)
					}
				}
			}
			ref.Release()
		}
		if tagged == 0 {
			t.Fatalf("%s: no row reached a satellite through a forwarder", mode)
		}
	}
}

// TestReducedRowBytes pins the reduced preset's oracle size at snapshot 0,
// both modes: 150 rows over 1,734 satellites and cities and the 150 × 150
// tables, 150·1,734·4 + 150²·(8 + 2) = 1,265,400 bytes.
func TestReducedRowBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the reduced preset")
	}
	sim := motifSim(t, topo.PlusGrid, core.ReducedScale(), "reduced")
	for _, mode := range []core.Mode{core.BP, core.Hybrid} {
		if st := buildOracle(t, buildNet(t, sim, mode, "")).Stats(); st.Nodes != 1734 || st.Bytes != 1_265_400 {
			t.Fatalf("%s: %d-node rows, %d bytes; want 1,734 and 1,265,400", mode, st.Nodes, st.Bytes)
		}
	}
}

// relayChain is two cities joined by a chain of relays: forwarders that touch
// no satellite at all.
func relayChain(relays int) *graph.Network {
	n := &graph.Network{NumCity: 2}
	a := n.AddNode(graph.NodeCity, geo.Vec3{}, "a")
	b := n.AddNode(graph.NodeCity, geo.Vec3{X: float64(relays + 1)}, "b")
	at := a
	for i := 1; i <= relays; i++ {
		r := n.AddNode(graph.NodeRelay, geo.Vec3{X: float64(i)}, "r")
		n.AddLink(at, r, graph.LinkGSL, 1)
		at = r
	}
	n.AddLink(at, b, graph.LinkGSL, 1)
	return n
}

// TestRowsOverEveryNode: where a forwarder does more than join satellites —
// a relay linked to a city (§8's fiber augmentation), to another relay, a
// satellite linked twice, a chain of relays between two cities — the rows
// cover every node, through the same code, and the differential battery and
// the hop table still hold.
func TestRowsOverEveryNode(t *testing.T) {
	sim := motifSim(t, topo.PlusGrid, core.TinyScale(), "tiny")
	healthy := buildNet(t, sim, core.BP, "")
	relay := int32(healthy.NumSat + healthy.NumCity)
	for i, tc := range []struct {
		name string
		a, b int32
		kind graph.LinkKind
	}{
		{"relay–city fiber", relay, healthy.CityNode(0), graph.LinkFiber},
		{"relay–relay", relay, relay + 1, graph.LinkGSL},
		{"parallel", relay, healthy.Edges(relay)[0].To, graph.LinkGSL},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := healthy.Clone()
			n.AddLink(tc.a, tc.b, tc.kind, 1)
			o := buildOracle(t, n)
			if st := o.Stats(); st.Nodes != n.N() || len(o.Tree(0)) != n.N() {
				t.Fatalf("rows of %d nodes (%d handed out), want all %d", st.Nodes, len(o.Tree(0)), n.N())
			}
			diffBattery(t, n, 30, int64(i+11))
		})
	}
	chain := relayChain(50)
	o := buildOracle(t, chain)
	if st := o.Stats(); st.Nodes != chain.N() {
		t.Fatalf("the relay chain's rows have %d nodes, want all %d", st.Nodes, chain.N())
	}
	hopTableMatchesWalk(t, o)
	if got := o.Hops(0, 1); got != 51 {
		t.Fatalf("Hops = %d over a 51-link chain", got)
	}
	if p, ok := o.Query(0, 1); !ok || p.OneWayMs != o.DistMs(0, 1) || len(p.Nodes) != 52 {
		t.Fatalf("the chain's path is %v (ok=%v)", p, ok)
	}
}

// TestHopTableOverflow pins the table's range: a tree path with more links
// than a uint16 counts fails the build instead of wrapping. Two cities joined
// by a chain of relays are enough.
func TestHopTableOverflow(t *testing.T) {
	o := buildOracle(t, relayChain(math.MaxUint16-1))
	if got := o.Hops(0, 1); got != math.MaxUint16 {
		t.Fatalf("Hops = %d over a %d-link chain", got, math.MaxUint16)
	}
	hopTableMatchesWalk(t, o)
	if o, err := Build(context.Background(), relayChain(math.MaxUint16), Options{}); err == nil {
		t.Fatalf("a %d-link path built an oracle reporting %d hops", math.MaxUint16+1, o.Hops(0, 1))
	}
}

// TestBuildCancelled pins cancellation: a dead context yields an error, not
// a partial oracle.
func TestBuildCancelled(t *testing.T) {
	sim := motifSim(t, topo.PlusGrid, core.TinyScale(), "tiny")
	n := buildNet(t, sim, core.BP, "")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if o, err := Build(ctx, n, Options{}); err == nil || o != nil {
		t.Fatalf("cancelled build returned (%v, %v), want error", o, err)
	}
}

func benchOracle(b *testing.B) (*graph.Network, *Oracle) {
	sim := motifSim(b, topo.PlusGrid, core.TinyScale(), "tiny")
	n := buildNet(b, sim, core.BP, "")
	return n, buildOracle(b, n)
}

// BenchmarkOracleBuild measures the one-time per-snapshot build cost the
// serving layer amortizes; bench/ records it at reduced scale as
// oracle.build_ms, beside the query costs it buys.
func BenchmarkOracleBuild(b *testing.B) {
	sim := motifSim(b, topo.PlusGrid, core.TinyScale(), "tiny")
	n := buildNet(b, sim, core.BP, "")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(context.Background(), n, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOracleQuery measures the pure distance lookup — one array read.
func BenchmarkOracleQuery(b *testing.B) {
	_, o := benchOracle(b)
	ncity := o.Sources()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += o.DistMs(i%ncity, (i*7+1)%ncity)
	}
	_ = sink
}

// BenchmarkOracleBatch measures path reconstruction from the stored tree for
// a stream of Zipf-ish repeating pairs — the per-pair cost behind GET /v1/path
// and a POST /v1/paths that asks for routes (the p99 < 100µs acceptance bar).
// Without routes a pair is BenchmarkOracleQuery's read, twice.
func BenchmarkOracleBatch(b *testing.B) {
	_, o := benchOracle(b)
	ncity := o.Sources()
	rng := rand.New(rand.NewSource(1))
	type pair struct{ src, dst int }
	pairs := make([]pair, 1024)
	for i := range pairs {
		s, d := rng.Intn(ncity), rng.Intn(ncity)
		if s == d {
			d = (d + 1) % ncity
		}
		pairs[i] = pair{s, d}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		o.Query(p.src, p.dst)
	}
}
