package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"regexp"
	"testing"
	"time"
)

func TestTraceIDString(t *testing.T) {
	if got := TraceID(0xab).String(); !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(got) {
		t.Errorf("TraceID.String() = %q, want 16 hex digits", got)
	}
	for _, id := range []TraceID{0, 0xab, 0x0123456789abcdef, 1<<64 - 1, NewTraceID()} {
		if got, want := id.String(), fmt.Sprintf("%016x", uint64(id)); got != want {
			t.Errorf("TraceID(%#x).String() = %q, want %q", uint64(id), got, want)
		}
	}
	a, b := NewTraceID(), NewTraceID()
	if a == b || a == 0 || b == 0 {
		t.Errorf("NewTraceID not unique: %v %v", a, b)
	}
}

func TestTraceIDContext(t *testing.T) {
	id := NewTraceID()
	ctx := WithTraceID(context.Background(), id)
	if got := TraceIDFrom(ctx); got != id {
		t.Errorf("TraceIDFrom = %v, want %v", got, id)
	}
	if got := TraceIDFrom(context.Background()); got != 0 {
		t.Errorf("TraceIDFrom(empty) = %v, want 0", got)
	}
}

// WithRequest's one context node answers both lookups, through the wrappers
// a request context gets (a deadline, a detached build), and passes every
// other key to its parent.
func TestWithRequest(t *testing.T) {
	type otherKey struct{}
	id, rec := NewTraceID(), NewRecorder()
	parent := context.WithValue(context.Background(), otherKey{}, "kept")
	ctx, cancel := context.WithTimeout(WithRequest(parent, rec, id), time.Minute)
	defer cancel()
	for _, c := range []context.Context{ctx, context.WithoutCancel(ctx)} {
		if got := TraceIDFrom(c); got != id {
			t.Errorf("TraceIDFrom = %v, want %v", got, id)
		}
		if got := FromContext(c); got != rec {
			t.Errorf("FromContext = %p, want %p", got, rec)
		}
		if got := c.Value(otherKey{}); got != "kept" {
			t.Errorf("parent value = %v, want kept", got)
		}
	}
	if rec := FromContext(WithRequest(context.Background(), nil, id)); rec != nil {
		t.Errorf("FromContext of a nil recorder = %p, want nil", rec)
	}
}

// Captures are exclusive and require telemetry: StartTracing fails when
// disabled, succeeds once, and fails again until StopTracing releases it.
func TestStartStopTracingExclusive(t *testing.T) {
	Disable()
	if _, err := StartTracing(0); err == nil {
		t.Fatal("StartTracing with telemetry disabled: want error")
	}
	Enable()
	defer Disable()
	tr, err := StartTracing(0)
	if err != nil {
		t.Fatal(err)
	}
	if !TracingEnabled() {
		t.Error("TracingEnabled = false during a capture")
	}
	if _, err := StartTracing(0); err == nil {
		t.Error("second StartTracing during a capture: want error")
	}
	if got := StopTracing(); got != tr {
		t.Errorf("StopTracing returned %p, want the running capture %p", got, tr)
	}
	if StopTracing() != nil {
		t.Error("StopTracing with no capture: want nil")
	}
	if TracingEnabled() {
		t.Error("TracingEnabled = true after StopTracing")
	}
}

// A span started under a traced context during a capture lands in the
// tracer; spans without a trace ID land on the shared untraced track; no
// capture running means no tracer cost at all.
func TestSpanRoutesIntoTracer(t *testing.T) {
	Enable()
	defer Disable()
	tr, err := StartTracing(0)
	if err != nil {
		t.Fatal(err)
	}
	defer StopTracing()

	ctx := WithTraceID(context.Background(), NewTraceID())
	sp := StartSpan(ctx, StageSearch)
	sp.End()
	if got := tr.Len(); got != 1 {
		t.Fatalf("tracer captured %d spans after traced StartSpan, want 1", got)
	}
	// RecordSpan (no recorder attached) still routes into the capture.
	sp = RecordSpan(ctx, StageKDisjoint)
	sp.End()
	if got := tr.Len(); got != 2 {
		t.Fatalf("tracer captured %d spans after traced RecordSpan, want 2", got)
	}
	AddTraceSpan("http_path", TraceIDFrom(ctx), time.Now(), time.Millisecond)
	if got := tr.Len(); got != 3 {
		t.Fatalf("tracer captured %d spans after AddTraceSpan, want 3", got)
	}
}

func TestTracerCapacity(t *testing.T) {
	tr := NewTracer(2)
	for i := 0; i < 5; i++ {
		tr.Add("s", 0, time.Now(), time.Microsecond)
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2 (bounded)", tr.Len())
	}
	if tr.Dropped() != 3 {
		t.Errorf("Dropped = %d, want 3", tr.Dropped())
	}
}

// WriteChrome must emit the {"traceEvents": [...]} envelope Perfetto loads:
// one thread_name metadata record per distinct trace, complete ("X") events
// with microsecond timestamps, and the drop count in otherData.
func TestWriteChrome(t *testing.T) {
	tr := NewTracer(8)
	base := time.Now()
	idA, idB := NewTraceID(), NewTraceID()
	tr.Add("graph_build", idA, base, 3*time.Millisecond)
	tr.Add("search", idA, base.Add(3*time.Millisecond), time.Millisecond)
	tr.Add("snapshot[0]", idB, base, 2*time.Millisecond)
	tr.Add("orphan", 0, base, time.Millisecond)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Pid  int                    `json:"pid"`
			Tid  uint32                 `json:"tid"`
			Dur  float64                `json:"dur"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
		OtherData struct {
			DroppedEvents int64 `json:"droppedEvents"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteChrome output is not valid JSON: %v\n%s", err, buf.String())
	}
	var meta, complete int
	tracks := map[uint32]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			tracks[ev.Tid] = true
			if ev.Name != "thread_name" {
				t.Errorf("metadata event named %q", ev.Name)
			}
		case "X":
			complete++
			if ev.Dur <= 0 {
				t.Errorf("complete event %q has dur %v", ev.Name, ev.Dur)
			}
		default:
			t.Errorf("unexpected ph %q", ev.Ph)
		}
	}
	// Three distinct tracks (trace A, trace B, untraced), four spans.
	if meta != 3 || complete != 4 {
		t.Errorf("got %d metadata + %d complete events, want 3 + 4", meta, complete)
	}
	if !tracks[idA.tid()] || !tracks[idB.tid()] || !tracks[0] {
		t.Errorf("missing a track: %v", tracks)
	}
	if doc.OtherData.DroppedEvents != 0 {
		t.Errorf("droppedEvents = %d, want 0", doc.OtherData.DroppedEvents)
	}
}
