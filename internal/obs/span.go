package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
)

// Distributed trace identity, W3C Trace Context style. A trace is one
// logical operation — a sweep job — however many processes execute
// pieces of it; a span is one timed piece (the job run, a lease, a
// row). Identity travels between processes as a `traceparent`
// header (https://www.w3.org/TR/trace-context/):
//
//	traceparent: 00-<32 hex trace-id>-<16 hex span-id>-01
//
// The coordinator mints the trace ID when a job is admitted, every
// lease carries it plus the lease's own span ID, and workers stamp
// their row spans with the same trace ID and the lease span as parent,
// and their row sweeps' events with the row span as parent — so one
// job submission yields a single stitched trace
// across the whole fleet (see cmd/sweeptrace).

// SpanContext identifies one span within one trace. The zero value is
// "not traced"; both IDs are lower-case hex strings (32 and 16 chars).
type SpanContext struct {
	TraceID string
	SpanID  string
}

// Valid reports whether the context carries a usable identity: a
// well-formed, non-zero trace ID and span ID.
func (sc SpanContext) Valid() bool {
	return validHexID(sc.TraceID, 32) && validHexID(sc.SpanID, 16)
}

// Child returns a new span context in the same trace with a fresh
// span ID — the caller's span becomes the child's parent by stamping
// the parent's SpanID into the child span's Parent field.
func (sc SpanContext) Child() SpanContext {
	return SpanContext{TraceID: sc.TraceID, SpanID: NewSpanID()}
}

// validHexID reports whether s is n lower-case hex chars, not all
// zero (the W3C formats reserve the all-zero IDs as invalid).
func validHexID(s string, n int) bool {
	if len(s) != n {
		return false
	}
	zero := true
	for i := 0; i < n; i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
		if c != '0' {
			zero = false
		}
	}
	return !zero
}

// NewTraceID mints a random 32-hex-char trace ID.
func NewTraceID() string { return randHex(16) }

// NewSpanID mints a random 16-hex-char span ID.
func NewSpanID() string { return randHex(8) }

// NewSpanContext mints a fresh trace root: new trace ID, new span ID.
func NewSpanContext() SpanContext {
	return SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
}

// randHex returns 2n random lower-case hex chars. crypto/rand never
// fails on the supported platforms; if it somehow does, a panic is
// more honest than colliding trace IDs.
func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		panic(fmt.Sprintf("obs: reading random trace id: %v", err))
	}
	return hex.EncodeToString(b)
}

// TraceparentHeader is the W3C Trace Context propagation header name.
const TraceparentHeader = "traceparent"

// Traceparent renders the context in W3C form (version 00, sampled).
// Invalid contexts render as "" so callers can propagate blindly.
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	return "00-" + sc.TraceID + "-" + sc.SpanID + "-01"
}

// ParseTraceparent parses a W3C traceparent value. Unknown versions
// are accepted as long as the trace-id/span-id fields parse — the
// spec's forward-compatibility rule — but the all-zero IDs and
// malformed fields are rejected.
func ParseTraceparent(s string) (SpanContext, error) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) < 4 {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q: want version-traceid-spanid-flags", s)
	}
	if len(parts[0]) != 2 || parts[0] == "ff" {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q: bad version %q", s, parts[0])
	}
	sc := SpanContext{TraceID: parts[1], SpanID: parts[2]}
	if !sc.Valid() {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q: invalid trace or span id", s)
	}
	return sc, nil
}

// Inject stamps the context into an outgoing header set; invalid
// contexts stamp nothing.
func (sc SpanContext) Inject(h http.Header) {
	if tp := sc.Traceparent(); tp != "" {
		h.Set(TraceparentHeader, tp)
	}
}

// ExtractSpanContext reads a span context from incoming headers.
// Missing or malformed headers return ok=false — absence of tracing
// is never an error.
func ExtractSpanContext(h http.Header) (SpanContext, bool) {
	v := h.Get(TraceparentHeader)
	if v == "" {
		return SpanContext{}, false
	}
	sc, err := ParseTraceparent(v)
	if err != nil {
		return SpanContext{}, false
	}
	return sc, true
}
