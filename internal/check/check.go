// Package check is the simulator's invariant-validation subsystem: a set of
// independent oracles that verify physical and algorithmic invariants of
// snapshot graphs, routed paths, and flow allocations. None of the checks
// re-run the code under test — they hold its outputs against closed-form
// geometry (slant-range and elevation bounds, analytic ISL length bounds
// valid for any intra-shell motif, the free-space propagation lower bound),
// against naive reference
// algorithms (linear-scan Dijkstra), and against defining mathematical
// properties (max-min bottleneck conditions), so a bug in an optimized fast
// path cannot hide behind the same bug in its checker.
//
// The checks are pure functions over built artifacts and accumulate findings
// into a Report; the experiment driver (core.RunCheck, surfaced as `leosim
// check`) sweeps them across snapshots and modes.
package check

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Class partitions violations by the invariant they breach. Distinct classes
// are the unit of the acceptance test "a corrupted link is caught by at least
// three distinct invariant classes".
type Class string

const (
	// ClassGraphShape covers structural graph defects: endpoint indices out
	// of range, self-loops, duplicate links, GSLs between two ground nodes,
	// ISLs touching a terminal, negative capacities, bad node layout.
	ClassGraphShape Class = "graph-shape"
	// ClassNodeGeometry covers per-node physical defects: non-finite
	// positions, satellites off their shell's orbital radius, ground
	// terminals away from the surface.
	ClassNodeGeometry Class = "node-geometry"
	// ClassGSLElevation flags ground-satellite links below the shell's
	// minimum elevation mask.
	ClassGSLElevation Class = "gsl-elevation"
	// ClassGSLRange flags ground-satellite links longer than the maximum
	// slant range the elevation mask admits.
	ClassGSLRange Class = "gsl-range"
	// ClassISLGeometry flags ISLs whose length falls outside the closed-form
	// bounds for their (ΔΩ, Δu) plane/slot relation, or that dip into the
	// lower atmosphere. The bounds are per-relation, not per-motif: +Grid,
	// diagonal offsets, ladder rings and matching-based motifs all validate
	// against the same analytic envelope.
	ClassISLGeometry Class = "isl-geometry"
	// ClassLinkDelay flags links whose OneWayMs disagrees with the
	// propagation delay recomputed from endpoint positions.
	ClassLinkDelay Class = "link-delay"
	// ClassPathContinuity flags returned paths that are not actual walks in
	// the snapshot graph (phantom links, disconnected consecutive nodes,
	// repeated links, delay not equal to the sum of link delays).
	ClassPathContinuity Class = "path-continuity"
	// ClassLatencyBound flags latencies below the free-space lower bound
	// (the taut-string path between the endpoints at the speed of light).
	ClassLatencyBound Class = "latency-bound"
	// ClassLatencySymmetry flags src→dst vs dst→src shortest-path distance
	// disagreements on the undirected snapshot graph.
	ClassLatencySymmetry Class = "latency-symmetry"
	// ClassDominance flags pairs where Hybrid (BP + ISLs, a supergraph)
	// ends up with a longer shortest path than BP.
	ClassDominance Class = "mode-dominance"
	// ClassOptimality flags kernel shortest-path distances that disagree
	// with the naive linear-scan reference Dijkstra.
	ClassOptimality Class = "dijkstra-optimality"
	// ClassFlow flags max-min allocations that oversubscribe an edge or
	// violate the water-filling bottleneck condition.
	ClassFlow Class = "flow-maxmin"
)

// Violation is one concrete breach of an invariant.
type Violation struct {
	Class  Class  `json:"class"`
	Detail string `json:"detail"`
	// Snapshot and Mode locate the breach when the check ran under an
	// experiment sweep; empty for context-free checks.
	Snapshot string `json:"snapshot,omitempty"`
	Mode     string `json:"mode,omitempty"`
}

// maxSamplesPerClass bounds how many violation details a report retains per
// class; beyond it only the count grows. A corrupt graph trips thousands of
// identical violations and the report must stay readable (and serializable).
const maxSamplesPerClass = 20

// Report accumulates check outcomes: how much was checked, and what failed.
// The zero value is ready to use. Not safe for concurrent use.
type Report struct {
	checked    map[string]int
	counts     map[Class]int
	violations []Violation

	// snapshot/mode labels stamped onto violations added while set.
	snapshot, mode string
}

// SetContext stamps subsequently added violations with a snapshot/mode label.
func (r *Report) SetContext(snapshot, mode string) {
	r.snapshot, r.mode = snapshot, mode
}

// Checked increments a named coverage counter (links, paths, pairs, …) so a
// clean report still proves the checks ran over real work.
func (r *Report) Checked(what string, n int) {
	if r.checked == nil {
		r.checked = map[string]int{}
	}
	r.checked[what] += n
}

// Violatef records a violation of class c with a formatted detail.
func (r *Report) Violatef(c Class, format string, args ...interface{}) {
	if r.counts == nil {
		r.counts = map[Class]int{}
	}
	r.counts[c]++
	if r.counts[c] <= maxSamplesPerClass {
		r.violations = append(r.violations, Violation{
			Class:    c,
			Detail:   fmt.Sprintf(format, args...),
			Snapshot: r.snapshot,
			Mode:     r.mode,
		})
	}
}

// OK reports whether no invariant was violated.
func (r *Report) OK() bool { return len(r.counts) == 0 }

// Total returns the total violation count across classes.
func (r *Report) Total() int {
	t := 0
	for _, n := range r.counts {
		t += n
	}
	return t
}

// Classes returns the violated classes, sorted.
func (r *Report) Classes() []Class {
	out := make([]Class, 0, len(r.counts))
	for c := range r.counts {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Violations returns the retained violation samples (capped per class).
func (r *Report) Violations() []Violation { return r.violations }

// CheckedCount returns one coverage counter.
func (r *Report) CheckedCount(what string) int { return r.checked[what] }

// MarshalJSON renders the report with deterministic key order: coverage
// counters, per-class totals, then the capped violation samples.
func (r *Report) MarshalJSON() ([]byte, error) {
	counts := map[string]int{}
	for c, n := range r.counts {
		counts[string(c)] = n
	}
	v := r.violations
	if v == nil {
		v = []Violation{}
	}
	return json.Marshal(struct {
		OK         bool           `json:"ok"`
		Checked    map[string]int `json:"checked"`
		Total      int            `json:"totalViolations"`
		Counts     map[string]int `json:"violationsByClass"`
		Violations []Violation    `json:"violations"`
	}{r.OK(), r.checked, r.Total(), counts, v})
}

// Summary renders a one-line outcome for logs.
func (r *Report) Summary() string {
	if r.OK() {
		return fmt.Sprintf("ok (%d checks)", r.totalChecked())
	}
	return fmt.Sprintf("%d violations in %d classes over %d checks",
		r.Total(), len(r.counts), r.totalChecked())
}

func (r *Report) totalChecked() int {
	t := 0
	for _, n := range r.checked {
		t += n
	}
	return t
}
