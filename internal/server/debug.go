package server

import (
	"net/http"
	"strconv"
	"time"

	"leosim/internal/telemetry"
)

// eventsResponse is the GET /debug/events payload. LastSeq is the newest
// sequence number in the recorder at snapshot time — pass it back as ?since=
// to read only what happened afterwards (the chaos tests use exactly this to
// scope a storm).
type eventsResponse struct {
	LastSeq uint64            `json:"lastSeq"`
	Events  []telemetry.Event `json:"events"`
}

// handleEvents answers GET /debug/events: the flight recorder's retained
// events, oldest first. Filters: ?since=<seq> (events after that sequence
// number), ?category=build|breaker|serve|chaos|journal,
// ?severity=info|warn|error (minimum), ?limit=<n> (newest n).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := telemetry.EventFilter{Cat: telemetry.CatAll}
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.fail(w, r, badRequest("since must be a sequence number"))
			return
		}
		f.Since = n
	}
	cat, err := telemetry.ParseCategory(q.Get("category"))
	if err != nil {
		s.fail(w, r, badRequest("category must be one of build, breaker, serve, chaos, journal"))
		return
	}
	f.Cat = cat
	sev, err := telemetry.ParseSeverity(q.Get("severity"))
	if err != nil {
		s.fail(w, r, badRequest("severity must be one of info, warn, error"))
		return
	}
	f.MinSev = sev
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.fail(w, r, badRequest("limit must be a non-negative integer"))
			return
		}
		f.Limit = n
	}
	evs := telemetry.Events(f)
	if evs == nil {
		evs = []telemetry.Event{}
	}
	writeJSON(w, http.StatusOK, eventsResponse{LastSeq: telemetry.LastEventSeq(), Events: evs})
}

// maxTraceCaptureDuration bounds one /debug/trace capture; holding the
// exclusive tracer (and the connection) longer serves no diagnostic purpose.
const maxTraceCaptureDuration = time.Minute

// handleTraceCapture answers GET /debug/trace?duration=5s: it starts an
// exclusive trace capture, records every span the process completes for the
// duration, and streams the result as Chrome trace_event JSON — open it in
// Perfetto (ui.perfetto.dev) to see each request and batch snapshot as its
// own track. 409 when a capture is already running.
func (s *Server) handleTraceCapture(w http.ResponseWriter, r *http.Request) {
	dur := 5 * time.Second
	if v := r.URL.Query().Get("duration"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 || d > maxTraceCaptureDuration {
			s.fail(w, r, badRequest("duration must be a positive duration up to %s", maxTraceCaptureDuration))
			return
		}
		dur = d
	}
	if _, err := telemetry.StartTracing(telemetry.DefaultTraceCapacity); err != nil {
		writeErrorTraced(w, http.StatusConflict, err.Error(), telemetry.TraceIDFrom(r.Context()))
		return
	}
	// Capture for the window, or until the client hangs up — either way the
	// exclusive tracer must be released.
	select {
	case <-time.After(dur):
	case <-r.Context().Done():
	}
	tr := telemetry.StopTracing()
	if tr == nil {
		s.fail(w, r, badRequest("trace capture was stopped concurrently"))
		return
	}
	if r.Context().Err() != nil {
		return // client gone; nothing to write to
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="leosim-trace.json"`)
	tr.WriteChrome(w) //nolint:errcheck // client gone — nothing left to do
}
