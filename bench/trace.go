package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
)

// The traced pass records spans from the benchmark's own side of each layer
// boundary: one span around every public call into a layer. Spans inside the
// program are a later change; nothing under internal/ knows about these.

// span is one timed call. Spans of one operation (a sweep round, a request)
// share op; parent is the index of the span that caused this one, or -1.
type span struct {
	name       string
	op         int64
	lane       int // 0 = the operation's own goroutine, 1.. = fan-out workers
	parent     int32
	start, end int64 // ns since process start
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the same workload code runs traced and untraced.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, op int64, lane int, parent int32) int32 {
	if t == nil {
		return -1
	}
	start := nowNs()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, op: op, lane: lane, parent: parent, start: start})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	end := nowNs()
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// covered returns how much of [lo, hi) the given intervals cover, counting
// overlapping intervals (parallel children) once.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	at := lo
	for _, x := range iv {
		s, e := max(x[0], at), min(x[1], hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// selfTimes returns, per span name, the total self time in ns (duration minus
// the part of it child spans cover) and the call count; and the coverage:
// the share of whole-operation (root span) time that the roots' direct
// children account for, i.e. that the trace attributes to a named layer call.
func (t *tracer) selfTimes() (byName map[string][2]int64, coverage float64) {
	children := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	byName = map[string][2]int64{}
	var rootNs, rootSelfNs int64
	for i, s := range t.spans {
		self := (s.end - s.start) - covered(children[int32(i)], s.start, s.end)
		v := byName[s.name]
		byName[s.name] = [2]int64{v[0] + self, v[1] + 1}
		if s.parent < 0 {
			rootNs += s.end - s.start
			rootSelfNs += self
		}
	}
	if rootNs > 0 {
		coverage = 1 - float64(rootSelfNs)/float64(rootNs)
	}
	return byName, coverage
}

// writeChrome writes the spans as Chrome trace_event JSON (load it in
// Perfetto or chrome://tracing): one process per operation, one thread per
// lane, so a round's parallel searches sit side by side under it.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int64          `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: s.op, Tid: s.lane,
			Args: map[string]any{"id": i, "parent": s.parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
