package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"time"
)

// Event is one trace record in the Chrome trace-event schema
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// a complete span (ph "X", with ts and dur in microseconds) or an
// instant marker (ph "i"). The writer emits one JSON object per line
// (JSONL), so a trace survives a crash mid-write and streams through
// line-oriented tools; wrap the lines in [] (sweeptrace -chrome does)
// to load the file in a Chrome-compatible trace viewer.
type Event struct {
	// Name identifies the event, e.g. "row", "attempt", "lease".
	Name string `json:"name"`
	// Cat is the event category, used by viewers for filtering.
	Cat string `json:"cat,omitempty"`
	// Phase is "X" (complete span) or "i" (instant).
	Phase string `json:"ph"`
	// TS is the start timestamp in microseconds since trace start.
	TS float64 `json:"ts"`
	// Dur is the span duration in microseconds (complete spans only).
	Dur float64 `json:"dur,omitempty"`
	// PID and TID give viewers a lane; the sweep uses TID for the
	// matrix row so each kernel renders as its own track.
	PID int   `json:"pid"`
	TID int64 `json:"tid"`
	// Trace, Span and Parent carry distributed-trace identity (see
	// SpanContext): Trace groups every span of one job across
	// processes, Span names this event's own span, Parent links it to
	// the span that caused it — possibly in another process. All
	// optional; single-process traces leave them empty.
	Trace  string `json:"trace,omitempty"`
	Span   string `json:"span,omitempty"`
	Parent string `json:"parent,omitempty"`
	// Proc names the emitting process ("coordinator", a worker name),
	// so a stitched multi-process trace keeps its provenance.
	Proc string `json:"proc,omitempty"`
	// Args carries the event payload (kernel, status counts, error,
	// fault kind, ...).
	Args map[string]any `json:"args,omitempty"`
}

// TraceWriter writes events as JSONL. It is safe for concurrent use;
// each event is one buffered, atomically written line. The zero
// timestamp is the writer's creation time. Events reach it through a
// Sink, which also hands them to the process's flight recorder.
type TraceWriter struct {
	mu      sync.Mutex
	bw      *bufio.Writer
	start   time.Time
	proc    string
	err     error
	scratch []byte
}

// NewTraceWriter wraps w; events are buffered, call Flush (or Close on
// the underlying file after Flush) when done.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{bw: bufio.NewWriter(w), start: time.Now()}
}

// SetProcess names the emitting process; it is stamped into every
// subsequent event. Call once at startup, before concurrent emitters
// exist.
func (tw *TraceWriter) SetProcess(name string) {
	tw.mu.Lock()
	tw.proc = name
	tw.mu.Unlock()
}

// KV is one typed event argument. A stack-built []KV and a hand-rolled
// encoder replace a map[string]any plus a reflective marshal per event.
type KV struct {
	Key  string
	s    string
	n    float64
	kind kvKind
}

type kvKind uint8

const (
	kvNum kvKind = iota
	kvStr
	kvBool
)

// KS builds a string-valued argument.
func KS(k, v string) KV { return KV{Key: k, s: v, kind: kvStr} }

// KN builds a numeric argument.
func KN(k string, v float64) KV { return KV{Key: k, n: v} }

// KB builds a boolean argument.
func KB(k string, v bool) KV {
	kv := KV{Key: k, kind: kvBool}
	if v {
		kv.n = 1
	}
	return kv
}

// appendArgs appends kvs as a JSON object.
func appendArgs(b []byte, kvs []KV) []byte {
	b = append(b, '{')
	for i, kv := range kvs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, kv.Key)
		b = append(b, ':')
		switch kv.kind {
		case kvStr:
			b = appendJSONString(b, kv.s)
		case kvBool:
			b = strconv.AppendBool(b, kv.n != 0)
		default:
			b = appendJSONFloat(b, kv.n)
		}
	}
	return append(b, '}')
}

// emit writes one event line; args is the event's encoded arguments
// object (appendArgs), or empty. A positive d makes it a complete span
// (ph "X") covering [start, start+d]; zero makes it an instant marker
// (ph "i") at start. sc names the event's own span (an empty SpanID
// for events without one) and parent its causal parent; empty identity
// fields are omitted. Write errors are sticky: the first is kept and
// every later event is dropped, so emitters need no error handling;
// Flush reports it at the end.
func (tw *TraceWriter) emit(name, cat string, tid int64, sc SpanContext, parent string, start time.Time, d time.Duration, args []byte) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.err != nil {
		return
	}
	b := tw.scratch[:0]
	b = append(b, `{"name":`...)
	b = appendJSONString(b, name)
	b = append(b, `,"cat":`...)
	b = appendJSONString(b, cat)
	if d > 0 {
		b = append(b, `,"ph":"X","ts":`...)
	} else {
		b = append(b, `,"ph":"i","ts":`...)
	}
	b = appendJSONFloat(b, float64(start.Sub(tw.start))/float64(time.Microsecond))
	if d > 0 {
		b = append(b, `,"dur":`...)
		b = appendJSONFloat(b, float64(d)/float64(time.Microsecond))
	}
	b = append(b, `,"pid":0,"tid":`...)
	b = strconv.AppendInt(b, tid, 10)
	if sc.TraceID != "" {
		b = append(b, `,"trace":`...)
		b = appendJSONString(b, sc.TraceID)
	}
	if sc.SpanID != "" {
		b = append(b, `,"span":`...)
		b = appendJSONString(b, sc.SpanID)
	}
	if parent != "" {
		b = append(b, `,"parent":`...)
		b = appendJSONString(b, parent)
	}
	if tw.proc != "" {
		b = append(b, `,"proc":`...)
		b = appendJSONString(b, tw.proc)
	}
	if len(args) > 0 {
		b = append(b, `,"args":`...)
		b = append(b, args...)
	}
	b = append(b, '}', '\n')
	if _, err := tw.bw.Write(b); err != nil {
		tw.err = err
	}
	tw.scratch = b
}

// appendJSONString appends s as a JSON string literal. Multi-byte
// UTF-8 passes through raw (valid JSON); quotes, backslashes and
// control bytes are escaped. Runs of bytes that need no escape are
// copied in one append.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		b = append(b, s[start:i]...)
		start = i + 1
		switch c {
		case '"', '\\':
			b = append(b, '\\', c)
		case '\n':
			b = append(b, '\\', 'n')
		case '\t':
			b = append(b, '\\', 't')
		case '\r':
			b = append(b, '\\', 'r')
		default:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendJSONFloat appends v as a JSON number; integral values take
// the integer fast path, everything else fixed-point with three
// decimals — nanosecond resolution for microsecond timestamps —
// written from the integer v*1000, which is exact below 2^53 and
// several times cheaper than strconv's fixed-precision formatting.
func appendJSONFloat(b []byte, v float64) []byte {
	if v == float64(int64(v)) {
		return strconv.AppendInt(b, int64(v), 10)
	}
	if v > -1e12 && v < 1e12 {
		m := int64(math.Round(v * 1000))
		if m < 0 {
			b = append(b, '-')
			m = -m
		}
		b = strconv.AppendInt(b, m/1000, 10)
		f := m % 1000
		return append(b, '.', byte('0'+f/100), byte('0'+f/10%10), byte('0'+f%10))
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// Flush drains the buffer and returns the first error seen, if any.
func (tw *TraceWriter) Flush() error {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if err := tw.bw.Flush(); err != nil && tw.err == nil {
		tw.err = err
	}
	return tw.err
}

// ReadEvents parses a JSONL trace stream back into events — the
// inverse of the writer, used by sweeptrace and tests. Blank lines are
// skipped; a malformed line aborts with its line number.
func ReadEvents(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, &TraceParseError{Line: line, Err: err}
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// TraceParseError reports a malformed trace line.
type TraceParseError struct {
	Line int
	Err  error
}

func (e *TraceParseError) Error() string {
	return fmt.Sprintf("obs: trace line %d: %v", e.Line, e.Err)
}

func (e *TraceParseError) Unwrap() error { return e.Err }
