package server

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// ---- a served answer's wire form ------------------------------------------
//
// A warm answer is a few table reads, and encoding/json cost more than that to
// write one: reflection over every value, then a second pass over the whole
// body to indent it. So the replies that carry answers are appended directly,
// already indented, with the appenders below: GET /v1/path's whole reply
// (pathResponse.appendJSON, into a pooled buffer written once) and the
// "results" rows of POST /v1/paths (batchPathEntry.appendJSON, behind an
// envelope encoding/json still writes). The bytes are the ones writeJSON gives
// for the same structs — two-space indent, HTML-escaping on, omitempty,
// RFC3339Nano times — and there is no second encoder to keep in step: the
// struct tags stay the statement of the wire form, FuzzPathResponseJSON and
// FuzzBatchEntryJSON hold the writers to encoding/json on the same structs,
// and served.golden pins whole responses. writeJSON remains for the cold
// routes and error bodies.

// The fragments of a /v1/path reply between its values.
const (
	pathTime         = "{\n  \"time\": \""
	pathMode         = "\",\n  \"mode\": "
	pathSrc          = ",\n  \"src\": "
	pathDst          = ",\n  \"dst\": "
	pathFault        = ",\n  \"fault\": "
	pathDegraded     = ",\n  \"degraded\": "
	pathReachable    = ",\n  \"path\": {\n    \"reachable\": "
	pathRTTMs        = ",\n    \"rttMs\": "
	pathOneWayMs     = ",\n    \"oneWayMs\": "
	pathHops         = ",\n    \"hops\": "
	pathRoute        = ",\n    \"route\": ["
	pathRouteNode    = "\n      "
	pathRouteEnd     = "\n    ]"
	pathAircraftHops = ",\n    \"aircraftHops\": "
	pathRelayHops    = ",\n    \"relayHops\": "
	pathCityHops     = ",\n    \"cityHops\": "
	pathEnd          = "\n  }\n}\n"
)

// appendJSON appends the reply as writeJSON writes it: json.Encoder with a
// two-space indent, and its trailing newline. Like encoding/json, it needs
// finite floats and a year in [0,9999]; every answer has both.
func (p *pathResponse) appendJSON(dst []byte) []byte {
	dst = append(dst, pathTime...)
	dst = p.Time.AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, pathMode...)
	dst = appendJSONString(dst, p.Mode)
	dst = append(dst, pathSrc...)
	dst = appendJSONString(dst, p.Src)
	dst = append(dst, pathDst...)
	dst = appendJSONString(dst, p.Dst)
	if p.Fault != "" {
		dst = append(dst, pathFault...)
		dst = appendJSONString(dst, p.Fault)
	}
	if p.Degraded != "" {
		dst = append(dst, pathDegraded...)
		dst = appendJSONString(dst, p.Degraded)
	}
	q := &p.Path
	dst = append(dst, pathReachable...)
	dst = strconv.AppendBool(dst, q.Reachable)
	dst = append(dst, pathRTTMs...)
	dst = appendJSONFloat(dst, q.RTTMs)
	dst = append(dst, pathOneWayMs...)
	dst = appendJSONFloat(dst, q.OneWayMs)
	dst = append(dst, pathHops...)
	dst = strconv.AppendInt(dst, int64(q.Hops), 10)
	if len(q.Route) > 0 {
		dst = append(dst, pathRoute...)
		for i, name := range q.Route {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, pathRouteNode...)
			dst = appendJSONString(dst, name)
		}
		dst = append(dst, pathRouteEnd...)
	}
	dst = append(dst, pathAircraftHops...)
	dst = strconv.AppendInt(dst, int64(q.AircraftHops), 10)
	dst = append(dst, pathRelayHops...)
	dst = strconv.AppendInt(dst, int64(q.RelayHops), 10)
	dst = append(dst, pathCityHops...)
	dst = strconv.AppendInt(dst, int64(q.CityHops), 10)
	return append(dst, pathEnd...)
}

// replyBufs recycles the buffers /v1/path replies are appended into.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledReply bounds the buffers replyBufs keeps: a rare long reply's
// buffer goes to the collector instead of staying pinned by the pool.
const maxPooledReply = 64 << 10

// writeBody writes body as a 200 JSON reply, in one Write.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body) //nolint:errcheck // client gone — nothing left to do
}

// appendJSONFloat appends a finite f in encoding/json's number form: the
// shortest digits that round-trip, positional unless the exponent is below
// -6 or at least 21, and then with the exponent's leading zero dropped.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 → e-7
		dst = dst[:n-1]
	}
	return dst
}

// jsonVerbatim reports the ASCII bytes appendJSONString copies as they are.
var jsonVerbatim = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// appendJSONString appends s quoted and escaped as encoding/json does with
// HTML-escaping on: `"`, `\`, control bytes, `<`, `>`, `&`, U+2028 and U+2029
// are escaped, invalid UTF-8 becomes \ufffd, everything else is copied.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0 // s[start:i] is verbatim text not yet copied
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if jsonVerbatim[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
