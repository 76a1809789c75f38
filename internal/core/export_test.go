package core

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func TestWriteJSONEnvelope(t *testing.T) {
	s := getTinySim(t)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, "fig4", s, []Fig4Row{{Constellation: Starlink, Mode: BP, K: 1, AggregateGbps: 42}}); err != nil {
		t.Fatal(err)
	}
	var env map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if env["experiment"] != "fig4" || env["constellation"] != "starlink" || env["scale"] != "tiny" {
		t.Errorf("envelope metadata: %v", env)
	}
	rows := env["data"].([]interface{})
	row := rows[0].(map[string]interface{})
	if row["mode"] != "bp" || row["aggregateGbps"].(float64) != 42 {
		t.Errorf("row = %v", row)
	}
	// Nil sim still works (metadata omitted).
	buf.Reset()
	if err := WriteJSON(&buf, "x", nil, 1); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyResultJSON(t *testing.T) {
	r := &LatencyResult{
		MinRTT:         map[Mode][]float64{BP: {10, 20}, Hybrid: {9, 18}},
		RangeRTT:       map[Mode][]float64{BP: {4, 6}, Hybrid: {2, 3}},
		ReachablePairs: 2,
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{`"bp":[10,20]`, `"hybrid":[9,18]`,
		`"reachablePairs":2`, `"medianVariationIncreasePct"`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON missing %q:\n%s", want, s)
		}
	}
}

// TestLatencyResultJSONZeroHybridVariation: a day on which no hybrid pair's
// RTT varies makes every variation increase over it +Inf, and the envelope
// must still encode — the increases as null, every finite number as before.
func TestLatencyResultJSONZeroHybridVariation(t *testing.T) {
	r := &LatencyResult{
		MinRTT:         map[Mode][]float64{BP: {10, 20}, Hybrid: {9, 18}},
		RangeRTT:       map[Mode][]float64{BP: {4, 6}, Hybrid: {0, 0}},
		ReachablePairs: 2,
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("zero hybrid variation does not encode: %v", err)
	}
	s := string(b)
	for _, want := range []string{`"maxMinRttGapMs":2`, `"medianVariationIncreasePct":null`,
		`"p95VariationIncreasePct":null`, `"hybrid":[0,0]`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON missing %q:\n%s", want, s)
		}
	}
}

func TestThroughputAndWeatherJSON(t *testing.T) {
	tr := &ThroughputResult{Mode: Hybrid, K: 4, AggregateGbps: 123.5, PathsFound: 9}
	b, _ := json.Marshal(tr)
	if !strings.Contains(string(b), `"mode":"hybrid"`) {
		t.Errorf("throughput JSON: %s", b)
	}
	wr := &WeatherResult{P995BP: []float64{3, 4}, P995ISL: []float64{1, 2}, PairsUsed: 2}
	b, _ = json.Marshal(wr)
	if !strings.Contains(string(b), `"medianIslAdvantageDb":2`) {
		t.Errorf("weather JSON: %s", b)
	}
}

func TestPairWeatherJSON(t *testing.T) {
	s := getTinySim(t)
	// Reuse a real curve via the weather machinery on one sampled pair.
	bp, isl, err := weatherCurves(context.Background(), s, s.Pairs[:1], KuBand)
	if err != nil {
		t.Fatal(err)
	}
	if len(bp[0]) == 0 || len(isl[0]) == 0 {
		t.Skip("first pair unroutable at tiny scale")
	}
	pw := &PairWeather{SrcCity: "A", DstCity: "B"}
	pw.BPCurve = bp[0][0]
	pw.ISLCurve = isl[0][0]
	b, err := json.Marshal(pw)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"pPercent"`) || !strings.Contains(string(b), `"bpAt1pctDb"`) {
		t.Errorf("pair weather JSON: %s", b)
	}
}

func TestExtensionResultJSON(t *testing.T) {
	pc := &PathChurnResult{
		ChangeFrac: map[Mode][]float64{BP: {1, 0.5}, Hybrid: {0.1, 0.2}},
		PairsUsed:  2,
	}
	b, err := json.Marshal(pc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"bpChangeFrac":[1,0.5]`) {
		t.Errorf("path churn JSON: %s", b)
	}
	u := &UtilizationResult{Mode: Hybrid, PerSatGbps: []float64{1}, Gini: 0.5}
	b, _ = json.Marshal(u)
	if !strings.Contains(string(b), `"mode":"hybrid"`) {
		t.Errorf("utilization JSON: %s", b)
	}
	bp := BeamPoint{MaxGSLs: 4, Mode: BP, AggregateGbps: 7}
	b, _ = json.Marshal([]BeamPoint{bp})
	if !strings.Contains(string(b), `"maxGslsPerSat":4`) {
		t.Errorf("beam JSON: %s", b)
	}
	te := &TEResult{Mode: Hybrid, K: 4, ShortestGbps: 10, TEGbps: 11}
	b, _ = json.Marshal(te)
	if !strings.Contains(string(b), `"gainFrac":0.1`) {
		t.Errorf("te JSON: %s", b)
	}
}
