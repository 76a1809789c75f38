package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Per-request tracing: every serve request and every traced batch snapshot
// gets a TraceID; spans started under a context carrying one are routed into
// the active Tracer (when a capture is running) and exported as Chrome
// trace_event JSON, loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Each trace renders as its own named track, so one
// request's graph-build → search → cache-lookup timeline reads left to
// right; context spans without a trace ID share one "untraced" track.
//
// Capture is explicitly bounded: StartTracing installs one Tracer in the
// process state (`-tracefile` arms it for a whole batch run; GET
// /debug/trace?duration= for a serve window); when no Tracer is installed a
// span's only tracing cost is one atomic load.

// TraceID identifies one request or one traced batch snapshot. IDs are
// unique within a process run (a random 32-bit epoch plus a counter), and
// render as 16 hex digits.
type TraceID uint64

// String renders the ID as it appears in logs, response headers and events.
func (id TraceID) String() string {
	const hex = "0123456789abcdef"
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = hex[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

var (
	// traceEpoch distinguishes runs: restarted processes never reuse IDs
	// within a log-retention window.
	traceEpoch = uint64(rand.Int63()) << 32 //nolint:gosec // uniqueness, not secrecy
	traceSeq   atomic.Uint64
)

// NewTraceID allocates a fresh process-unique trace ID.
func NewTraceID() TraceID {
	return TraceID(traceEpoch | (traceSeq.Add(1) & 0xffffffff))
}

type traceIDKey struct{}

// WithTraceID attaches id to ctx. context.WithoutCancel (the snapshot
// cache's detached builds) preserves the attachment, which is what joins a
// background build failure to the request that triggered it.
func WithTraceID(ctx context.Context, id TraceID) context.Context {
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceIDFrom returns the trace ID attached to ctx, or zero.
func TraceIDFrom(ctx context.Context) TraceID {
	id, _ := ctx.Value(traceIDKey{}).(TraceID)
	return id
}

// traceEvent is one completed span in a capture.
type traceEvent struct {
	name  string
	trace TraceID
	start time.Time
	dur   time.Duration
}

// DefaultTraceCapacity bounds a capture's retained spans; past it, new
// spans are dropped (and counted) rather than growing without bound.
const DefaultTraceCapacity = 1 << 20

// Tracer accumulates completed spans for one capture window.
type Tracer struct {
	mu      sync.Mutex
	started time.Time
	events  []traceEvent
	max     int
	dropped int64
}

// NewTracer creates a detached tracer (max <= 0 uses DefaultTraceCapacity).
// Most callers want StartTracing, which also installs it.
func NewTracer(max int) *Tracer {
	if max <= 0 {
		max = DefaultTraceCapacity
	}
	return &Tracer{started: time.Now(), max: max}
}

// Add records one completed span. Spans without a trace ID (id == 0) land
// on a shared "untraced" track rather than being lost.
func (t *Tracer) Add(name string, id TraceID, start time.Time, dur time.Duration) {
	t.mu.Lock()
	if len(t.events) >= t.max {
		t.dropped++
	} else {
		t.events = append(t.events, traceEvent{name: name, trace: id, start: start, dur: dur})
	}
	t.mu.Unlock()
}

// Len returns the number of captured spans.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns how many spans were discarded over capacity.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// chromeEvent is one trace_event record. Complete events (ph "X") carry ts
// and dur in microseconds; metadata events (ph "M") name the tracks.
type chromeEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Pid  int                    `json:"pid"`
	Tid  uint32                 `json:"tid"`
	Ts   float64                `json:"ts,omitempty"`
	Dur  float64                `json:"dur,omitempty"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// tid folds a TraceID onto a Chrome thread id: each trace is one track.
func (id TraceID) tid() uint32 { return uint32(id) }

// WriteChrome renders the capture as Chrome trace_event JSON (the
// {"traceEvents": [...]} envelope Perfetto and chrome://tracing load
// directly). Spans are emitted in capture order with timestamps relative to
// the capture start; every distinct trace gets a thread_name metadata
// record so tracks are labeled by trace ID.
func (t *Tracer) WriteChrome(w io.Writer) error {
	t.mu.Lock()
	events := t.events
	started := t.started
	dropped := t.dropped
	t.mu.Unlock()

	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	emit := func(first bool, ev chromeEvent) error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		raw, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		_, err = bw.Write(raw)
		return err
	}
	first := true
	seen := map[TraceID]bool{}
	for i := range events {
		ev := &events[i]
		if !seen[ev.trace] {
			seen[ev.trace] = true
			name := "untraced"
			if ev.trace != 0 {
				name = "trace " + ev.trace.String()
			}
			if err := emit(first, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: ev.trace.tid(),
				Args: map[string]interface{}{"name": name},
			}); err != nil {
				return err
			}
			first = false
		}
		ce := chromeEvent{
			Name: ev.name, Ph: "X", Pid: 1, Tid: ev.trace.tid(),
			Ts:  float64(ev.start.Sub(started)) / 1e3,
			Dur: float64(ev.dur) / 1e3,
		}
		if ev.trace != 0 {
			ce.Args = map[string]interface{}{"trace": ev.trace.String()}
		}
		if err := emit(first, ce); err != nil {
			return err
		}
		first = false
	}
	if _, err := fmt.Fprintf(bw, "\n],\"otherData\":{\"droppedEvents\":%d}}\n", dropped); err != nil {
		return err
	}
	return bw.Flush()
}

// StartTracing installs a fresh Tracer in the process state and returns
// it. It fails when telemetry is disabled or a capture is already running —
// captures are exclusive so two /debug/trace windows cannot steal each
// other's spans.
func StartTracing(max int) (*Tracer, error) {
	p := active.Load()
	if p == nil {
		return nil, fmt.Errorf("telemetry: tracing requires telemetry enabled")
	}
	tr := NewTracer(max)
	if !p.tracer.CompareAndSwap(nil, tr) {
		return nil, fmt.Errorf("telemetry: a trace capture is already running")
	}
	return tr, nil
}

// StopTracing uninstalls and returns the running capture (nil when none).
func StopTracing() *Tracer {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.tracer.Swap(nil)
}

// TracingEnabled reports whether a capture is currently running — the gate
// callers use before paying for per-snapshot trace IDs.
func TracingEnabled() bool {
	p := active.Load()
	return p != nil && p.tracer.Load() != nil
}

// AddTraceSpan records one explicitly-delimited span (a whole HTTP request,
// a whole experiment) into the running capture, if any.
func AddTraceSpan(name string, id TraceID, start time.Time, dur time.Duration) {
	p := active.Load()
	if p == nil {
		return
	}
	if tr := p.tracer.Load(); tr != nil {
		tr.Add(name, id, start, dur)
	}
}
