package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseCategory(t *testing.T) {
	for c := Category(0); c < NumCategories; c++ {
		got, err := ParseCategory(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCategory(%q) = %v, %v; want %v", c.String(), got, err, c)
		}
	}
	if got, err := ParseCategory(""); err != nil || got != CatAll {
		t.Errorf("ParseCategory(\"\") = %v, %v; want CatAll", got, err)
	}
	if _, err := ParseCategory("bogus"); err == nil {
		t.Error("ParseCategory(bogus): want error")
	}
}

func TestParseSeverity(t *testing.T) {
	for _, s := range []Severity{SevInfo, SevWarn, SevError} {
		got, err := ParseSeverity(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSeverity(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	if got, err := ParseSeverity(""); err != nil || got != SevInfo {
		t.Errorf("ParseSeverity(\"\") = %v, %v; want SevInfo", got, err)
	}
	if _, err := ParseSeverity("fatal"); err == nil {
		t.Error("ParseSeverity(fatal): want error")
	}
}

// The ring keeps exactly the newest `capacity` events: after overflow the
// snapshot starts at seq total-capacity+1 and stays oldest-first.
func TestEventRingWraparound(t *testing.T) {
	r := newEventRing(16)
	for i := 0; i < 40; i++ {
		r.emit(Event{Cat: CatBuild, Msg: "e"})
	}
	if got := r.LastSeq(); got != 40 {
		t.Fatalf("LastSeq = %d, want 40", got)
	}
	evs := r.Snapshot(EventFilter{Cat: CatAll})
	if len(evs) != 16 {
		t.Fatalf("retained %d events, want 16", len(evs))
	}
	for i, e := range evs {
		if want := uint64(25 + i); e.Seq != want {
			t.Fatalf("evs[%d].Seq = %d, want %d (oldest-first)", i, e.Seq, want)
		}
	}
}

func TestEventRingFilters(t *testing.T) {
	r := newEventRing(64)
	r.emit(Event{Cat: CatBuild, Sev: SevInfo, Msg: "build done"})
	r.emit(Event{Cat: CatBuild, Sev: SevError, Msg: "build failed"})
	r.emit(Event{Cat: CatServe, Sev: SevWarn, Msg: "load shed: server at capacity"})
	r.emit(Event{Cat: CatBreaker, Sev: SevError, Msg: "breaker open"})

	if evs := r.Snapshot(EventFilter{Cat: CatBuild}); len(evs) != 2 {
		t.Errorf("Cat=build: %d events, want 2", len(evs))
	}
	if evs := r.Snapshot(EventFilter{Cat: CatAll, MinSev: SevError}); len(evs) != 2 {
		t.Errorf("MinSev=error: %d events, want 2", len(evs))
	}
	if evs := r.Snapshot(EventFilter{Cat: CatAll, Since: 3}); len(evs) != 1 || evs[0].Seq != 4 {
		t.Errorf("Since=3: %+v, want just seq 4", evs)
	}
	// Limit keeps the newest N of the matches.
	if evs := r.Snapshot(EventFilter{Cat: CatAll, Limit: 2}); len(evs) != 2 || evs[1].Seq != 4 {
		t.Errorf("Limit=2: %+v, want seqs 3,4", evs)
	}
}

func TestEmitEventDisabled(t *testing.T) {
	Disable()
	EmitEvent(context.Background(), CatBuild, SevError, "into the void")
	if evs := Events(EventFilter{Cat: CatAll}); evs != nil {
		t.Errorf("Events while disabled = %v, want nil", evs)
	}
	if seq := LastEventSeq(); seq != 0 {
		t.Errorf("LastEventSeq while disabled = %d, want 0", seq)
	}
	var buf bytes.Buffer
	DumpEvents(&buf)
	if buf.Len() != 0 {
		t.Errorf("DumpEvents while disabled wrote %q", buf.String())
	}
}

// An event emitted under a traced context carries the trace ID — including
// through context.WithoutCancel, which is how detached snapshot builds join
// back to the request that triggered them.
func TestEmitEventCarriesTraceID(t *testing.T) {
	Enable()
	defer Disable()
	id := NewTraceID()
	ctx := WithTraceID(context.Background(), id)
	detached := context.WithoutCancel(ctx)
	since := LastEventSeq()
	EmitEvent(detached, CatChaos, SevWarn, "chaos injected build failure", Str("key", "k"), Int64("draw", 7))
	EmitEvent(nil, CatAdvance, SevInfo, "no context at all")

	evs := Events(EventFilter{Cat: CatAll, Since: since})
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Trace != id {
		t.Errorf("event trace = %v, want %v (value must survive WithoutCancel)", evs[0].Trace, id)
	}
	if evs[1].Trace != 0 {
		t.Errorf("nil-ctx event trace = %v, want 0", evs[1].Trace)
	}
	attrs := evs[0].Attrs()
	if len(attrs) != 2 || attrs[0].Key != "key" || attrs[0].Str != "k" || attrs[1].Int != 7 {
		t.Errorf("attrs = %+v", attrs)
	}
}

func TestEventMarshalJSON(t *testing.T) {
	e := Event{
		Seq: 3, Time: time.Unix(0, 0).UTC(), Cat: CatBuild, Sev: SevError,
		Trace: TraceID(0xabc), Msg: "build failed",
	}
	e.attrs[0] = Str("key", "bp@snap0")
	e.attrs[1] = Int64("durMs", 1500)
	e.nattrs = 2
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]interface{}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got["category"] != "build" || got["severity"] != "error" || got["msg"] != "build failed" {
		t.Errorf("marshalled = %v", got)
	}
	if got["trace"] != TraceID(0xabc).String() {
		t.Errorf("trace = %v, want %v", got["trace"], TraceID(0xabc).String())
	}
	attrs, _ := got["attrs"].(map[string]interface{})
	if attrs["key"] != "bp@snap0" || attrs["durMs"] != float64(1500) {
		t.Errorf("attrs = %v", attrs)
	}
}

func TestDumpEvents(t *testing.T) {
	Enable()
	defer Disable()
	EmitEvent(nil, CatBreaker, SevError, "breaker open: consecutive build failures crossed threshold",
		Int64("streak", 5))
	var buf bytes.Buffer
	DumpEvents(&buf)
	out := buf.String()
	for _, want := range []string{"flight recorder", "error", "breaker", "streak=5"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

// Concurrent emitters and readers must be race-clean and never lose the
// sequence invariant (this test is most useful under -race).
func TestEventRingConcurrent(t *testing.T) {
	Enable()
	defer Disable()
	const workers, per = 8, 200
	start := LastEventSeq()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				EmitEvent(nil, CatBuild, SevInfo, "concurrent", Int64("i", int64(i)))
				if i%50 == 0 {
					Events(EventFilter{Cat: CatBuild, Limit: 8})
				}
			}
		}()
	}
	wg.Wait()
	if got := LastEventSeq(); got != start+workers*per {
		t.Errorf("LastEventSeq = %d, want %d", got, start+workers*per)
	}
}

// The enabled emit path must not allocate per event: Event is a fixed-size
// value copied into a preallocated slot, and integer attrs are not formatted
// at emission time.
func TestEmitEventZeroAlloc(t *testing.T) {
	Enable()
	defer Disable()
	key := Str("key", "bp@snap0")
	dur := Int64("durMs", 12)
	allocs := testing.AllocsPerRun(1000, func() {
		EmitEvent(nil, CatBuild, SevInfo, "build done", key, dur)
	})
	if allocs != 0 {
		t.Errorf("EmitEvent allocates %.1f per call, want 0", allocs)
	}
}
