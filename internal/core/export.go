package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"leosim/internal/fault"
	"leosim/internal/telemetry"
	"leosim/internal/topo"
)

// JSONEnvelope wraps an experiment result with enough metadata to interpret
// it standalone (which constellation, which scale, which experiment).
type JSONEnvelope struct {
	Tool          string `json:"tool"`
	Paper         string `json:"paper"`
	Experiment    string `json:"experiment"`
	Constellation string `json:"constellation"`
	Scale         string `json:"scale"`
	// Partial marks an envelope flushed after a cancelled (e.g. Ctrl-C)
	// run: Data covers the completed prefix of the experiment only.
	Partial bool `json:"partial,omitempty"`
	// StageTimes breaks the run's wall time down by pipeline stage (graph
	// build, search, allocation, …) when the run carried a telemetry
	// recorder; absent otherwise.
	StageTimes map[string]telemetry.StageTime `json:"stage_times,omitempty"`
	Data       interface{}                    `json:"data"`
}

// WriteJSON emits an experiment result as an indented JSON envelope.
func WriteJSON(w io.Writer, experiment string, s *Sim, data interface{}) error {
	return WriteJSONStages(w, experiment, s, data, false, nil)
}

// WriteJSONStages is WriteJSON with an explicit partial flag (a cancelled
// run flushing the units it completed) and the run's telemetry recorder: a
// non-nil rec with observed spans adds the per-stage time breakdown to the
// envelope.
func WriteJSONStages(w io.Writer, experiment string, s *Sim, data interface{}, partial bool, rec *telemetry.Recorder) error {
	env := JSONEnvelope{
		Tool:       "leosim",
		Paper:      "Hauri et al., 'Internet from Space' without Inter-satellite Links?, HotNets 2020",
		Experiment: experiment,
		Partial:    partial,
		StageTimes: rec.Breakdown(),
		Data:       data,
	}
	if s != nil {
		env.Constellation = s.Choice.String()
		env.Scale = s.Scale.Name
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(env); err != nil {
		return fmt.Errorf("core: encoding %s result: %w", experiment, err)
	}
	return nil
}

// Float is a float64 whose wire form admits the non-finite values results
// really hold (an unreachable median is +Inf), which encoding/json rejects:
// it is written as null when not finite and null reads back as +Inf. Finite
// values round-trip bit for bit, because Go's float64 encoding is the
// shortest one that parses back to the identical bits.
type Float float64

// MarshalJSON writes null for ±Inf and NaN.
func (f Float) MarshalJSON() ([]byte, error) {
	if v := float64(f); math.IsInf(v, 0) || math.IsNaN(v) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}

// UnmarshalJSON reads null as +Inf.
func (f *Float) UnmarshalJSON(b []byte) error {
	v := math.Inf(1)
	if string(b) != "null" {
		if err := json.Unmarshal(b, &v); err != nil {
			return err
		}
	}
	*f = Float(v)
	return nil
}

// A result's wire form is its struct tags. The MarshalJSON methods below
// exist only where the wire form is not the struct: headline numbers derived
// from the fields are appended (the fields themselves are embedded, never
// listed again), or the shape differs.

// MarshalJSON appends the paper's headline variation numbers. They are Floats:
// an increase over a zero hybrid variation is +Inf, written as null.
func (r *LatencyResult) MarshalJSON() ([]byte, error) {
	type plain LatencyResult
	med, p95 := r.Headline()
	return json.Marshal(struct {
		*plain
		MaxMinRTTGapMs       Float `json:"maxMinRttGapMs"`
		MedianVariationIncPc Float `json:"medianVariationIncreasePct"`
		P95VariationIncPc    Float `json:"p95VariationIncreasePct"`
	}{(*plain)(r), Float(r.MaxMinRTTGapMs()), Float(med), Float(p95)})
}

// MarshalJSON appends the median ISL advantage.
func (r *WeatherResult) MarshalJSON() ([]byte, error) {
	type plain WeatherResult
	return json.Marshal(struct {
		*plain
		MedianAdvantageDB float64 `json:"medianIslAdvantageDb"`
	}{(*plain)(r), r.MedianAdvantageDB()})
}

// MarshalJSON appends the throughput gain of TE over shortest paths.
func (r *TEResult) MarshalJSON() ([]byte, error) {
	type plain TEResult
	return json.Marshal(struct {
		*plain
		GainFrac float64 `json:"gainFrac"`
	}{(*plain)(r), r.ThroughputGainFrac()})
}

// MarshalJSON flattens the per-mode churn map and adds the per-mode means.
func (r *PathChurnResult) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		BP        []float64 `json:"bpChangeFrac"`
		Hybrid    []float64 `json:"hybridChangeFrac"`
		BPMean    float64   `json:"bpMeanChangeFrac"`
		HyMean    float64   `json:"hybridMeanChangeFrac"`
		PairsUsed int       `json:"pairsUsed"`
	}{
		BP: r.ChangeFrac[BP], Hybrid: r.ChangeFrac[Hybrid],
		BPMean: r.MeanChangeFrac(BP), HyMean: r.MeanChangeFrac(Hybrid),
		PairsUsed: r.PairsUsed,
	})
}

// MarshalJSON names the sweep configuration of the topology-lab result
// (durations as strings) and adds the demand-motif headline before the cells.
func (r *TopoResult) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Motifs          []topo.ID      `json:"motifs"`
		K               int            `json:"k"`
		FaultScenario   fault.Scenario `json:"faultScenario"`
		FaultFraction   float64        `json:"faultFraction"`
		FaultSeed       int64          `json:"faultSeed"`
		ChurnStep       string         `json:"churnStep"`
		ChurnWindow     string         `json:"churnWindow"`
		SnapshotsUsed   int            `json:"snapshotsUsed"`
		DemandAdvantage float64        `json:"demandVsPlusGridAdvantagePct"`
		Cells           []TopoCell     `json:"cells"`
	}{
		Motifs: r.Motifs, K: r.K,
		FaultScenario: r.FaultScenario, FaultFraction: r.FaultFraction,
		FaultSeed: r.FaultSeed,
		ChurnStep: r.ChurnStep.String(), ChurnWindow: r.ChurnWindow.String(),
		SnapshotsUsed:   r.SnapshotsUsed,
		DemandAdvantage: r.DemandAdvantagePct(),
		Cells:           r.Cells,
	})
}

// MarshalJSON renders both exceedance curves plus the 1%-of-time headline.
func (p *PairWeather) MarshalJSON() ([]byte, error) {
	bpDB, islDB, bpPow, islPow := p.At1Percent()
	type curve struct {
		P []float64 `json:"pPercent"`
		A []float64 `json:"attenuationDb"`
	}
	return json.Marshal(struct {
		Src         string  `json:"src"`
		Dst         string  `json:"dst"`
		BP          curve   `json:"bp"`
		ISL         curve   `json:"isl"`
		BPAt1PctDB  float64 `json:"bpAt1pctDb"`
		ISLAt1PctDB float64 `json:"islAt1pctDb"`
		BPPower     float64 `json:"bpReceivedPowerFrac"`
		ISLPower    float64 `json:"islReceivedPowerFrac"`
	}{
		Src: p.SrcCity, Dst: p.DstCity,
		BP:         curve{P: p.BPCurve.P, A: p.BPCurve.A},
		ISL:        curve{P: p.ISLCurve.P, A: p.ISLCurve.A},
		BPAt1PctDB: bpDB, ISLAt1PctDB: islDB,
		BPPower: bpPow, ISLPower: islPow,
	})
}
