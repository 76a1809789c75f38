package telemetry

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Stage names one instrumented pipeline stage. The set is fixed so that the
// hot paths index arrays instead of hashing strings.
type Stage uint8

const (
	// StageGraphBuild is one snapshot graph construction (Builder.At).
	StageGraphBuild Stage = iota
	// StageCSRFreeze is the adjacency freeze into CSR form.
	StageCSRFreeze
	// StageSearch is one run of the Dijkstra kernel (Network.Search).
	StageSearch
	// StageKDisjoint is one k-edge-disjoint-paths computation.
	StageKDisjoint
	// StageMaxMin is one max-min fair allocation.
	StageMaxMin
	// StageWeather is one ITU-R attenuation curve realization.
	StageWeather
	// StageFaultRealize is one fault-plan realization into outages.
	StageFaultRealize
	// StageCacheHit is a snapshot-cache lookup served from memory.
	StageCacheHit
	// StageCacheMiss is a snapshot-cache lookup that led the build.
	StageCacheMiss
	// StageCacheWait is a snapshot-cache lookup that waited on another
	// caller's in-flight build (singleflight share).
	StageCacheWait
	// StageOracleBuild is one per-snapshot distance-oracle construction
	// (oracle.Build): the one-time cost the batched query path amortizes.
	StageOracleBuild
	// StageOracleQuery is one oracle-answered path query — the precomputed
	// alternative to a full StageSearch.
	StageOracleQuery
	// NumStages bounds the Stage enum; not a stage itself.
	NumStages
)

var stageNames = [NumStages]string{
	"graph_build", "csr_freeze", "search", "kdisjoint",
	"maxmin_alloc", "weather", "fault_realize",
	"cache_hit", "cache_miss", "cache_wait",
	"oracle_build", "oracle_query",
}

// String returns the stable snake_case stage name used in /metrics keys,
// stage_times breakdowns, and log attributes.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// Span measures one stage execution. It is a small value — returned and
// passed by value, never allocated — and the zero Span (disabled telemetry)
// makes End a no-op after a couple of nil/zero checks.
type Span struct {
	rec    *Recorder
	stage  Stage
	toHist bool
	// traced routes the completed span into the trace capture that was
	// running when it started, on trace's track: the context's trace ID, or
	// zero — the tracer's "untraced" track — when the context carries none.
	traced bool
	trace  TraceID
	start  time.Time
}

// StartStageSpan opens a span that records only into the active registry's
// per-stage histogram. It is the form used by the packages that own each
// stage (graph, flow, itur, fault) — call sites without a context. When
// telemetry is disabled it costs one atomic load and returns the zero Span.
func StartStageSpan(stage Stage) Span {
	if active.Load() == nil {
		return Span{}
	}
	return Span{stage: stage, toHist: true, start: time.Now()}
}

// StartSpan opens a span that records into both the active registry's stage
// histogram and the Recorder carried by ctx (if any). Use it where a stage
// is observed exactly once per execution and a context is at hand (the
// snapshot cache). Under a running trace capture, StartSpan and RecordSpan
// spans are traced too: on the track of the context's trace ID, or on the
// "untraced" track when it carries none.
func StartSpan(ctx context.Context, stage Stage) Span {
	reg := active.Load()
	if reg == nil {
		return Span{}
	}
	sp := Span{rec: FromContext(ctx), stage: stage, toHist: true, traced: reg.tracer.Load() != nil, start: time.Now()}
	if sp.traced {
		sp.trace = TraceIDFrom(ctx)
	}
	return sp
}

// RecordSpan opens a span that records only into the Recorder carried by
// ctx. This is the coarse attribution form: experiment and server code wraps
// calls into packages that already feed the registry histograms themselves,
// so wrapping never double-counts /metrics.
func RecordSpan(ctx context.Context, stage Stage) Span {
	reg := active.Load()
	if reg == nil {
		return Span{}
	}
	rec := FromContext(ctx)
	traced := reg.tracer.Load() != nil
	if rec == nil && !traced {
		return Span{}
	}
	sp := Span{rec: rec, stage: stage, traced: traced, start: time.Now()}
	if traced {
		sp.trace = TraceIDFrom(ctx)
	}
	return sp
}

// End finishes the span under the stage it was started with.
func (sp Span) End() { sp.EndAs(sp.stage) }

// EndAs finishes the span attributing it to stage instead of the one it was
// started with — for call sites that learn the outcome only at the end
// (cache hit vs miss vs singleflight wait).
func (sp Span) EndAs(stage Stage) {
	if !sp.toHist && sp.rec == nil && !sp.traced {
		return
	}
	d := time.Since(sp.start)
	if sp.toHist {
		if reg := active.Load(); reg != nil {
			reg.stages[stage].Observe(d)
		}
	}
	if sp.rec != nil {
		sp.rec.observe(stage, d)
	}
	if sp.traced {
		AddTraceSpan(stage.String(), sp.trace, sp.start, d)
	}
}

// Recorder accumulates per-stage wall-clock totals for one run or one
// request. It is safe for concurrent spans (parallel experiment workers all
// attribute into the same run recorder). Stages nest — a kdisjoint span
// contains many search spans — so totals are per-stage wall time, not a
// partition of the run.
type Recorder struct {
	nanos  [NumStages]atomic.Int64
	counts [NumStages]atomic.Int64
}

// NewRecorder returns an empty per-run recorder.
func NewRecorder() *Recorder { return &Recorder{} }

func (r *Recorder) observe(stage Stage, d time.Duration) {
	r.nanos[stage].Add(int64(d))
	r.counts[stage].Add(1)
}

// Count returns how many spans of one stage ended on this recorder.
func (r *Recorder) Count(stage Stage) int64 { return r.counts[stage].Load() }

// StageTime is one stage's entry in a run breakdown.
type StageTime struct {
	Count   int64   `json:"count"`
	TotalMs float64 `json:"totalMs"`
}

// Breakdown returns the non-empty stages as a name → StageTime map, the
// shape embedded into experiment JSON envelopes as stage_times. It returns
// nil when nothing was recorded, so an empty breakdown marshals as absent.
func (r *Recorder) Breakdown() map[string]StageTime {
	if r == nil {
		return nil
	}
	var out map[string]StageTime
	for s := Stage(0); s < NumStages; s++ {
		c := r.counts[s].Load()
		if c == 0 {
			continue
		}
		if out == nil {
			out = make(map[string]StageTime)
		}
		out[s.String()] = StageTime{
			Count:   c,
			TotalMs: float64(r.nanos[s].Load()) / 1e6,
		}
	}
	return out
}

// Summary renders the breakdown as one compact "stage=12.3ms×4" list,
// sorted by descending total — the form request logs carry.
func (r *Recorder) Summary() string {
	bd := r.Breakdown()
	if len(bd) == 0 {
		return ""
	}
	type kv struct {
		name string
		st   StageTime
	}
	items := make([]kv, 0, len(bd))
	for name, st := range bd {
		items = append(items, kv{name, st})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].st.TotalMs > items[j].st.TotalMs })
	var b strings.Builder
	for i, it := range items {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.2fms×%d", it.name, it.st.TotalMs, it.st.Count)
	}
	return b.String()
}

type recorderKey struct{}

// WithRecorder attaches rec to ctx; spans started with StartSpan/RecordSpan
// under the returned context attribute to it. context.WithoutCancel (the
// snapshot cache's detached builds) preserves the attachment.
func WithRecorder(ctx context.Context, rec *Recorder) context.Context {
	return context.WithValue(ctx, recorderKey{}, rec)
}

// FromContext returns the Recorder attached to ctx, or nil.
func FromContext(ctx context.Context) *Recorder {
	rec, _ := ctx.Value(recorderKey{}).(*Recorder)
	return rec
}
