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
	r.Histogram("queue_ms") // registered, never observed

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
		"# TYPE leosim_queue_seconds histogram",
		"leosim_queue_seconds_count 0",
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

// The serve path renders its own registry and then the process registry
// back to back; together they must declare no family twice, and every stage
// appears, observed or not.
func TestWritePrometheusCompose(t *testing.T) {
	serverReg := NewRegistry()
	serverReg.Counter("requests").Add(1)
	serverReg.Histogram("http_path_ms").Observe(time.Millisecond)
	proc := Enable()
	defer Disable()
	StartStageSpan(StageGraphBuild).End()

	var buf bytes.Buffer
	if err := serverReg.WritePrometheus(&buf, "leosim_"); err != nil {
		t.Fatal(err)
	}
	if err := proc.WritePrometheus(&buf, "leosim_stage_"); err != nil {
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
	for s := Stage(0); s < NumStages; s++ {
		if family := "leosim_stage_" + s.String() + "_seconds"; seen[family] != 1 {
			t.Errorf("stage family %s missing from composed output:\n%s", family, out)
		}
	}
	if !strings.Contains(out, "leosim_stage_graph_build_seconds_count 1\n") ||
		!strings.Contains(out, "leosim_stage_search_seconds_count 0\n") {
		t.Errorf("stage counts: want graph_build 1 and search 0:\n%s", out)
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
