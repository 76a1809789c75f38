package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// The flight recorder: a fixed-size ring buffer of structured events that
// records *what happened* — build failures, breaker transitions, degraded
// serves, chaos injections, rebuild fallbacks — where the metrics registry
// records only *how many*. Diagnosing "breakerOpens: 3" needs the order and
// identity of the three failures; the recorder keeps the last few thousand
// events resident so a crash dump, a SIGQUIT, or GET /debug/events can
// reconstruct the failure sequence post hoc.
//
// Emission sits behind the same atomic.Pointer gate as spans: with
// telemetry disabled an EmitEvent is one atomic load; enabled, it copies a
// fixed-size Event value into a preallocated slot under a mutex — O(1), no
// per-event heap allocation (proven by BenchmarkEventEnabled).

// Category classifies an event by the subsystem that emitted it. The set is
// closed so /debug/events can filter without string matching.
type Category uint8

const (
	// CatBuild is the snapshot-build lifecycle: start, finish, failure,
	// timeout, late adoption.
	CatBuild Category = iota
	// CatBreaker is a circuit-breaker transition (open, half-open, close).
	CatBreaker
	// CatServe is a request-path degradation: fallback serve, load shed,
	// breaker reject, internal error.
	CatServe
	// CatChaos is an injected fault from the chaos injector.
	CatChaos
	// CatJournal is a crash-recovery event (resume replays).
	CatJournal
	// NumCategories bounds the enum; not a category itself.
	NumCategories
	// CatAll is the filter wildcard accepted by EventFilter.
	CatAll Category = 255
)

var categoryNames = [NumCategories]string{
	"build", "breaker", "serve", "chaos", "journal",
}

// String returns the stable category name used in /debug/events filters and
// JSON output.
func (c Category) String() string {
	if c < NumCategories {
		return categoryNames[c]
	}
	return fmt.Sprintf("category(%d)", uint8(c))
}

// ParseCategory resolves a category name ("" means CatAll).
func ParseCategory(name string) (Category, error) {
	if name == "" {
		return CatAll, nil
	}
	for i, n := range categoryNames {
		if n == name {
			return Category(i), nil
		}
	}
	return 0, fmt.Errorf("telemetry: unknown event category %q", name)
}

// Severity grades an event.
type Severity uint8

const (
	// SevInfo is normal operation worth recording (build done, replay).
	SevInfo Severity = iota
	// SevWarn is a degradation the system absorbed (fallback serve, timeout).
	SevWarn
	// SevError is a failure (build failed, breaker opened).
	SevError
)

var severityNames = [3]string{"info", "warn", "error"}

func (s Severity) String() string {
	if int(s) < len(severityNames) {
		return severityNames[s]
	}
	return fmt.Sprintf("severity(%d)", uint8(s))
}

// ParseSeverity resolves a severity name ("" means SevInfo — no floor).
func ParseSeverity(name string) (Severity, error) {
	if name == "" {
		return SevInfo, nil
	}
	for i, n := range severityNames {
		if n == name {
			return Severity(i), nil
		}
	}
	return 0, fmt.Errorf("telemetry: unknown severity %q", name)
}

// maxEventAttrs bounds per-event attributes so an Event is a fixed-size
// value: appending one to the ring copies, never allocates.
const maxEventAttrs = 4

// Attr is one event attribute. Construct with Str or Int64; the two-field
// shape keeps integer attrs from being formatted (allocating) at emission
// time — rendering happens only when the event is dumped or served.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	isInt bool
}

// Str builds a string attribute.
func Str(key, val string) Attr { return Attr{Key: key, Str: val} }

// Int64 builds an integer attribute without formatting it.
func Int64(key string, val int64) Attr { return Attr{Key: key, Int: val, isInt: true} }

// Value returns the attribute's value for JSON rendering.
func (a Attr) Value() interface{} {
	if a.isInt {
		return a.Int
	}
	return a.Str
}

func (a Attr) appendText(b []byte) []byte {
	b = append(b, a.Key...)
	b = append(b, '=')
	if a.isInt {
		return fmt.Appendf(b, "%d", a.Int)
	}
	return append(b, a.Str...)
}

// Event is one flight-recorder record: when, what subsystem, how bad, which
// request (trace), and a handful of attributes. It is a fixed-size value.
type Event struct {
	// Seq is the global emission sequence number (1-based, monotonic);
	// /debug/events?since= filters on it.
	Seq  uint64
	Time time.Time
	Cat  Category
	Sev  Severity
	// Trace joins the event to the request or run that caused it (zero when
	// none was in scope).
	Trace TraceID
	// Msg is the event's static description ("build failed", "load shed").
	Msg string

	attrs  [maxEventAttrs]Attr
	nattrs uint8
}

// Attrs returns the event's attributes (a view of the fixed array).
func (e *Event) Attrs() []Attr { return e.attrs[:e.nattrs] }

// MarshalJSON renders the event for /debug/events.
func (e Event) MarshalJSON() ([]byte, error) {
	attrs := map[string]interface{}{}
	for _, a := range e.Attrs() {
		attrs[a.Key] = a.Value()
	}
	view := struct {
		Seq      uint64                 `json:"seq"`
		Time     time.Time              `json:"time"`
		Category string                 `json:"category"`
		Severity string                 `json:"severity"`
		Trace    string                 `json:"trace,omitempty"`
		Msg      string                 `json:"msg"`
		Attrs    map[string]interface{} `json:"attrs,omitempty"`
	}{
		Seq: e.Seq, Time: e.Time,
		Category: e.Cat.String(), Severity: e.Sev.String(),
		Msg: e.Msg, Attrs: attrs,
	}
	if e.Trace != 0 {
		view.Trace = e.Trace.String()
	}
	return json.Marshal(view)
}

// appendText renders one dump line:
// "12:04:05.123 ERROR build   build failed key=... err=...".
func (e *Event) appendText(b []byte) []byte {
	b = e.Time.AppendFormat(b, "15:04:05.000")
	b = fmt.Appendf(b, " %-5s %-7s ", e.Sev.String(), e.Cat.String())
	if e.Trace != 0 {
		b = fmt.Appendf(b, "[%s] ", e.Trace.String())
	}
	b = append(b, e.Msg...)
	for _, a := range e.Attrs() {
		b = append(b, ' ')
		b = a.appendText(b)
	}
	return append(b, '\n')
}

// DefaultEventCapacity is the flight-recorder ring size installed by
// Enable. At a few hundred bytes per slot the resident cost is ~1 MiB —
// hours of failure history at realistic event rates.
const DefaultEventCapacity = 4096

// EventRing is the fixed-capacity ring. All methods are safe for concurrent
// use; append is O(1) and allocation-free (the buffer is preallocated and
// events are copied by value).
type EventRing struct {
	mu  sync.Mutex
	buf []Event
	seq uint64 // total events ever emitted; buf[(seq-1) % cap] is newest
}

// newEventRing allocates a ring of the given capacity (minimum 16).
func newEventRing(capacity int) *EventRing {
	if capacity < 16 {
		capacity = 16
	}
	return &EventRing{buf: make([]Event, capacity)}
}

func (r *EventRing) emit(e Event) {
	r.mu.Lock()
	r.seq++
	e.Seq = r.seq
	r.buf[(r.seq-1)%uint64(len(r.buf))] = e
	r.mu.Unlock()
}

// LastSeq returns the sequence number of the newest event (0 if none).
func (r *EventRing) LastSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// EventFilter selects events from the ring.
type EventFilter struct {
	// Since drops events with Seq <= Since (0 = from the oldest retained).
	Since uint64
	// Cat keeps one category, or CatAll for every category.
	Cat Category
	// MinSev drops events below this severity.
	MinSev Severity
	// Limit bounds the result (0 = no bound beyond ring capacity). When
	// more events match, the *newest* Limit are returned.
	Limit int
}

// Snapshot copies the matching events out of the ring, oldest first.
func (r *EventRing) Snapshot(f EventFilter) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	capacity := uint64(len(r.buf))
	lo := uint64(0)
	if r.seq > capacity {
		lo = r.seq - capacity // oldest retained seq - 1
	}
	if f.Since > lo {
		lo = f.Since
	}
	var out []Event
	for s := lo + 1; s <= r.seq; s++ {
		e := &r.buf[(s-1)%capacity]
		if f.Cat != CatAll && e.Cat != f.Cat {
			continue
		}
		if e.Sev < f.MinSev {
			continue
		}
		out = append(out, *e)
	}
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// EmitEvent records one event on the process flight recorder.
// Disabled telemetry makes it one atomic load; enabled, it reads the trace
// ID from ctx and copies the event into the ring — no heap allocation when
// msg and the attrs are preexisting values. A nil ctx is allowed.
func EmitEvent(ctx context.Context, cat Category, sev Severity, msg string, attrs ...Attr) {
	p := active.Load()
	if p == nil {
		return
	}
	e := Event{Time: time.Now(), Cat: cat, Sev: sev, Msg: msg}
	if ctx != nil {
		e.Trace = TraceIDFrom(ctx)
	}
	n := copy(e.attrs[:], attrs)
	e.nattrs = uint8(n)
	p.events.emit(e)
}

// Events snapshots the process flight recorder (nil when
// telemetry is disabled).
func Events(f EventFilter) []Event {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.events.Snapshot(f)
}

// LastEventSeq returns the newest event sequence number on the process
// flight recorder (0 when disabled or empty) — the cursor for incremental reads.
func LastEventSeq() uint64 {
	p := active.Load()
	if p == nil {
		return 0
	}
	return p.events.LastSeq()
}

// dumpLimit bounds a crash dump so a panic report stays readable.
const dumpLimit = 256

// DumpEvents writes the newest retained events (up to 256) to w as text,
// oldest first — the post-mortem view wired to panic recovery and SIGQUIT.
// A no-op when telemetry is disabled or nothing was recorded.
func DumpEvents(w io.Writer) {
	p := active.Load()
	if p == nil {
		return
	}
	evs := p.events.Snapshot(EventFilter{Cat: CatAll, Limit: dumpLimit})
	if len(evs) == 0 {
		return
	}
	var b []byte
	b = fmt.Appendf(b, "--- flight recorder: last %d events ---\n", len(evs))
	for i := range evs {
		b = evs[i].appendText(b)
	}
	b = append(b, "--- end flight recorder ---\n"...)
	w.Write(b) //nolint:errcheck // best-effort crash dump
}
