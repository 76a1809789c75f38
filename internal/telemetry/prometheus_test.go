package telemetry

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"requests":      "requests",
		"shed429":       "shed429",
		"cache.hits":    "cache_hits",
		"9lives":        "_lives", // leading digit is illegal
		"über-metric":   "_ber_metric",
		"":              "_",
		"stage:rebuild": "stage:rebuild",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
	if got := promHistName("http_path_ms"); got != "http_path_seconds" {
		t.Errorf("promHistName(http_path_ms) = %q", got)
	}
	if got := promHistName("queue_depth"); got != "queue_depth_seconds" {
		t.Errorf("promHistName(queue_depth) = %q", got)
	}
}

// Exposition-format grammar for the lines WritePrometheus emits: either a
// # TYPE comment or "name[{le="..."}] value".
var promLineRE = regexp.MustCompile(
	`^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)|` +
		`[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? [-+0-9.eE]+(e[-+][0-9]+)?|` +
		`[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="\+Inf"\}) [0-9]+)$`)

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests").Add(42)
	r.Gauge("inflight").Add(3)
	r.RegisterGaugeFunc("cacheEntries", func() int64 { return 7 })
	h := r.Histogram("http_path_ms")
	for _, d := range []time.Duration{500 * time.Nanosecond, 3 * time.Microsecond,
		90 * time.Microsecond, 2 * time.Millisecond, 40 * time.Millisecond} {
		h.Observe(d)
	}
	r.StageHistogram(StageSearch).Observe(120 * time.Microsecond)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf, "leosim_"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !promLineRE.MatchString(line) {
			t.Errorf("line violates exposition grammar: %q", line)
		}
	}
	for _, want := range []string{
		"# TYPE leosim_requests counter",
		"leosim_requests 42",
		"# TYPE leosim_inflight gauge",
		"leosim_inflight 3",
		"leosim_cacheEntries 7",
		"# TYPE leosim_http_path_seconds histogram",
		"# TYPE leosim_stage_search_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// Histogram buckets must be cumulative (monotone non-decreasing in le
	// order as emitted) and the +Inf bucket must equal _count.
	var last int64 = -1
	var inf, count int64 = -1, -1
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "leosim_http_path_seconds_bucket{le=\"+Inf\"}"):
			inf = promSampleValue(t, line)
		case strings.HasPrefix(line, "leosim_http_path_seconds_bucket"):
			v := promSampleValue(t, line)
			if v < last {
				t.Errorf("bucket series not monotone: %d after %d (%s)", v, last, line)
			}
			last = v
		case strings.HasPrefix(line, "leosim_http_path_seconds_count"):
			count = promSampleValue(t, line)
		}
	}
	if inf != 5 || count != 5 {
		t.Errorf("+Inf bucket = %d, _count = %d, want both 5", inf, count)
	}
	if inf < last {
		t.Errorf("+Inf bucket %d below last finite bucket %d", inf, last)
	}
}

// A second registry rendering only stages must not duplicate any family of
// the first render — the serve path composes per-server metrics with the
// process-global stage histograms this way.
func TestWritePrometheusStagesCompose(t *testing.T) {
	serverReg := NewRegistry()
	serverReg.Counter("requests").Add(1)
	globalReg := NewRegistry()
	globalReg.StageHistogram(StageGraphBuild).Observe(time.Millisecond)

	var buf bytes.Buffer
	if err := serverReg.WritePrometheus(&buf, "leosim_"); err != nil {
		t.Fatal(err)
	}
	if err := globalReg.WritePrometheusStages(&buf, "leosim_"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	seen := map[string]int{}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			seen[strings.Fields(line)[2]]++
		}
	}
	for family, n := range seen {
		if n > 1 {
			t.Errorf("family %s declared %d times", family, n)
		}
	}
	if seen["leosim_stage_graph_build_seconds"] != 1 {
		t.Errorf("stage family missing from composed output:\n%s", out)
	}
}

func promSampleValue(t *testing.T, line string) int64 {
	t.Helper()
	fields := strings.Fields(line)
	v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
	if err != nil {
		t.Fatalf("bad sample line %q: %v", line, err)
	}
	return v
}
