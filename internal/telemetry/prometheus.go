package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prometheus text exposition (the version 0.0.4 format every scraper
// speaks), stdlib-only: counters and gauges render as single samples,
// histograms as cumulative `_bucket{le="..."}` series with `_sum` and
// `_count`. Durations are converted to seconds per Prometheus convention —
// a histogram registered as "http_path_ms" exports as
// "<prefix>http_path_seconds".

// promName sanitizes a metric name into the exposition grammar
// ([a-zA-Z_:][a-zA-Z0-9_:]*): every illegal rune becomes '_'.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		legal := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if legal {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// promHistName maps a registry histogram name to its exported seconds name:
// a trailing "_ms" is replaced by "_seconds", otherwise "_seconds" appends.
func promHistName(name string) string {
	return promName(strings.TrimSuffix(name, "_ms")) + "_seconds"
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writePromHistogram renders one Histogram as a cumulative-bucket series.
// The bucket grid is the histogram's own power-of-two microsecond grid,
// expressed in seconds; +Inf equals the bucket-count total, so bucket
// monotonicity and the count invariant hold by construction even while
// concurrent Observes land mid-scrape. A write error sticks to w and
// surfaces at its Flush.
func writePromHistogram(w *bufio.Writer, name string, h *Histogram) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	var cum int64
	for i := 0; i < numBuckets; i++ {
		cum += h.buckets[i].Load()
		if i == numBuckets-1 {
			// The last bucket is unbounded above; its cumulative count IS
			// the +Inf sample.
			break
		}
		le := promFloat(float64(bucketUpperNs(i)) / 1e9)
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, le, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", name, promFloat(float64(h.sumNs.Load())/1e9))
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
}

// promTypes is each family kind's exposition TYPE.
var promTypes = [...]string{kindCounter: "counter", kindGauge: "gauge"}

// WritePrometheus renders the registry — counters, gauges (including
// pull-style gauge funcs) and histograms, observed or not — in Prometheus
// text exposition format, every metric name prefixed (e.g. "leosim_").
// Output order is deterministic: families sorted by name within each kind.
func (r *Registry) WritePrometheus(w io.Writer, prefix string) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.families() {
		if f.kind == kindHistogram {
			writePromHistogram(bw, prefix+promHistName(f.name), f.hist)
			continue
		}
		full := prefix + promName(f.name)
		fmt.Fprintf(bw, "# TYPE %s %s\n%s %d\n", full, promTypes[f.kind], full, f.value)
	}
	return bw.Flush()
}
