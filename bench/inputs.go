package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strconv"

	"leosim/internal/core"
	"leosim/internal/fault"
)

// Everything the program under test receives is generated here from the
// seed, before any timed phase: the program sees requests, never the seed.

// Request-list sizes per client. Lists are cycled, so they only need to be
// long enough that the snapshot/pair mix is representative; the what-if
// list must also outlast the server's LRU (2×snapshots+8 entries) so every
// group's first request is a miss again when the list wraps.
const (
	pathOpsPerClient     = 4096
	batchBodiesPerClient = 48
	batchPairs           = 256
	whatifGroups         = 256
	whatifGroupSize      = 4
	whatifFraction       = 0.05
	verifyEvery          = 64 // single answers: every 64th is checked against the reference
)

// query is one path question: the unit both the requests and the reference
// table are made of. faultSeed 0 means the healthy network.
type query struct {
	src, dst, snap int
	mode           core.Mode
	faultSeed      int64
}

// expect is one answer the client verifies: results[index] of a batch
// response, or the single answer when index < 0.
type expect struct {
	index int
	q     query
}

// op is one pre-rendered request.
type op struct {
	post    bool
	url     string // path + query, appended to the server's base URL
	body    []byte
	answers int
	q       query // the pair asked (first pair of a batch)
	expects []expect
}

// drawer produces the Zipf(s=1.1, v=2) city-pair draw over population rank
// (sim.Cities is ordered most-populous first).
type drawer struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	nsnap   int
	counter int
}

func newDrawer(seed int64, ncities, nsnap int) *drawer {
	rng := rand.New(rand.NewSource(seed))
	return &drawer{rng: rng, zipf: rand.NewZipf(rng, 1.1, 2, uint64(ncities-1)), nsnap: nsnap}
}

func (d *drawer) pair() (src, dst int) {
	for {
		src, dst = int(d.zipf.Uint64()), int(d.zipf.Uint64())
		if src != dst {
			return src, dst
		}
	}
}

// snapMode draws a snapshot uniformly and alternates the mode.
func (d *drawer) snapMode() (int, core.Mode) {
	d.counter++
	return d.rng.Intn(d.nsnap), core.Mode(d.counter % 2)
}

func pathURL(sim *core.Sim, q query) string {
	v := url.Values{}
	v.Set("src", sim.CityName(q.src))
	v.Set("dst", sim.CityName(q.dst))
	v.Set("mode", q.mode.String())
	v.Set("snap", strconv.Itoa(q.snap))
	if q.faultSeed != 0 {
		v.Set("fault", string(fault.SatOutage))
		v.Set("fraction", strconv.FormatFloat(whatifFraction, 'g', -1, 64))
		v.Set("fault-seed", strconv.FormatInt(q.faultSeed, 10))
	}
	return "/v1/path?" + v.Encode()
}

// servePathOps: one GET /v1/path per op against the healthy, primed day.
func servePathOps(sim *core.Sim, seed int64, clients int) [][]op {
	lists := make([][]op, clients)
	for c := range lists {
		d := newDrawer(seed*1000+int64(c), sim.NumCities(), sim.Scale.NumSnapshots)
		for i := 0; i < pathOpsPerClient; i++ {
			var q query
			q.src, q.dst = d.pair()
			q.snap, q.mode = d.snapMode()
			o := op{url: pathURL(sim, q), answers: 1, q: q}
			if i%verifyEvery == 0 {
				o.expects = []expect{{index: -1, q: q}}
			}
			lists[c] = append(lists[c], o)
		}
	}
	return lists
}

// servePathsOps: one POST /v1/paths per op, 256 distinct pairs against one
// (snapshot, mode). At scales with too few cities for 256 distinct pairs the
// batch is as large as the city set allows.
func servePathsOps(sim *core.Sim, seed int64, clients int) ([][]op, error) {
	type pairJSON struct {
		Src string `json:"src"`
		Dst string `json:"dst"`
	}
	type bodyJSON struct {
		Mode  string     `json:"mode"`
		Snap  int        `json:"snap"`
		Pairs []pairJSON `json:"pairs"`
	}
	n := min(batchPairs, sim.NumCities()*(sim.NumCities()-1)/4)
	lists := make([][]op, clients)
	for c := range lists {
		d := newDrawer(seed*1000+100+int64(c), sim.NumCities(), sim.Scale.NumSnapshots)
		for i := 0; i < batchBodiesPerClient; i++ {
			snap, mode := d.snapMode()
			seen := map[[2]int]bool{}
			body := bodyJSON{Mode: mode.String(), Snap: snap}
			var qs []query
			for len(qs) < n {
				src, dst := d.pair()
				if seen[[2]int{src, dst}] {
					continue
				}
				seen[[2]int{src, dst}] = true
				qs = append(qs, query{src: src, dst: dst, snap: snap, mode: mode})
				body.Pairs = append(body.Pairs, pairJSON{Src: sim.CityName(src), Dst: sim.CityName(dst)})
			}
			data, err := json.Marshal(body)
			if err != nil {
				return nil, err
			}
			lists[c] = append(lists[c], op{
				post: true, url: "/v1/paths", body: data, answers: n, q: qs[0],
				expects: []expect{{index: 0, q: qs[0]}, {index: n - 1, q: qs[n-1]}},
			})
		}
	}
	return lists, nil
}

// serveWhatifOps: groups of 4 consecutive GET /v1/path against one
// (fault seed, snapshot, mode) that the cache has never seen: 1 miss that
// builds a masked network, then 3 hits answered by the live kernel.
func serveWhatifOps(sim *core.Sim, seed int64, clients int) [][]op {
	lists := make([][]op, clients)
	for c := range lists {
		d := newDrawer(seed*1000+200+int64(c), sim.NumCities(), sim.Scale.NumSnapshots)
		for g := 0; g < whatifGroups; g++ {
			snap, mode := d.snapMode()
			faultSeed := seed*1_000_000 + int64(c)*10_000 + int64(g) + 1
			for i := 0; i < whatifGroupSize; i++ {
				q := query{snap: snap, mode: mode, faultSeed: faultSeed}
				q.src, q.dst = d.pair()
				o := op{url: pathURL(sim, q), answers: 1, q: q}
				if len(lists[c])%verifyEvery == 0 {
					o.expects = []expect{{index: -1, q: q}}
				}
				lists[c] = append(lists[c], o)
			}
		}
	}
	return lists
}

// answer is a reference answer from the live kernel.
type answer struct {
	reachable bool
	rttMs     float64
}

// reference answers every query the clients will verify with the live
// kernel (Sim.BuildNetworkAt + Sim.PathAt), one network build per distinct
// (snapshot, mode, fault seed). The server must return exactly these.
func reference(ctx context.Context, sim *core.Sim, lists [][]op) (map[query]answer, error) {
	type netKey struct {
		snap      int
		mode      core.Mode
		faultSeed int64
	}
	byNet := map[netKey][]query{}
	for _, list := range lists {
		for _, o := range list {
			for _, e := range o.expects {
				k := netKey{e.q.snap, e.q.mode, e.q.faultSeed}
				byNet[k] = append(byNet[k], e.q)
			}
		}
	}
	times := sim.SnapshotTimes()
	table := map[query]answer{}
	for k, qs := range byNet {
		outages, err := realizeOutages(sim, k.faultSeed)
		if err != nil {
			return nil, err
		}
		n, err := sim.BuildNetworkAt(ctx, times[k.snap], k.mode, outages)
		if err != nil {
			return nil, err
		}
		for _, q := range qs {
			pq, err := sim.PathAt(ctx, n, q.src, q.dst)
			if err != nil {
				return nil, err
			}
			table[q] = answer{reachable: pq.Reachable, rttMs: pq.RTTMs}
		}
	}
	return table, nil
}

// realizeOutages turns a what-if fault seed into the outage set the server
// derives from the same request parameters; seed 0 is the healthy network.
func realizeOutages(sim *core.Sim, faultSeed int64) (*fault.Outages, error) {
	if faultSeed == 0 {
		return nil, nil
	}
	plan, err := fault.ForScenario(fault.SatOutage, whatifFraction, faultSeed)
	if err != nil {
		return nil, err
	}
	return plan.Realize(sim.Const, len(sim.Seg.Terminals))
}

// tableDigest is the result_digest of a served workload: the reference
// answers in a canonical order. Same seed, same code ⇒ same digest; every
// verified server answer equals an entry, so a changed answer changes it.
func tableDigest(table map[query]answer) string {
	qs := make([]query, 0, len(table))
	for q := range table {
		qs = append(qs, q)
	}
	sort.Slice(qs, func(a, b int) bool {
		x, y := qs[a], qs[b]
		if x.faultSeed != y.faultSeed {
			return x.faultSeed < y.faultSeed
		}
		if x.snap != y.snap {
			return x.snap < y.snap
		}
		if x.mode != y.mode {
			return x.mode < y.mode
		}
		if x.src != y.src {
			return x.src < y.src
		}
		return x.dst < y.dst
	})
	var buf bytes.Buffer
	for _, q := range qs {
		a := table[q]
		fmt.Fprintf(&buf, "%d %d %d %d %d %v %x\n", q.faultSeed, q.snap, q.mode, q.src, q.dst, a.reachable, math.Float64bits(a.rttMs))
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256(buf.Bytes()))
}
