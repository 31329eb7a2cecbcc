package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	start := time.Now()
	tw.emit("row", "sweep", 3, SpanContext{}, "", start, 42*time.Microsecond,
		appendArgs(nil, []KV{KS("kernel", "k1"), KN("retries", 2)}))
	tw.emit("fault", "fault", 3, SpanContext{}, "", time.Now(), 0, appendArgs(nil, []KV{KS("kind", "error")}))
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	// Every line is standalone JSON (the JSONL contract).
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	for i, l := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("line %d is not JSON: %v", i, err)
		}
	}

	evs, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("read %d events, want 2", len(evs))
	}
	row := evs[0]
	if row.Name != "row" || row.Phase != "X" || row.TID != 3 {
		t.Errorf("row event = %+v", row)
	}
	if row.Dur != 42 {
		t.Errorf("row dur = %g us, want 42", row.Dur)
	}
	if row.Args["kernel"] != "k1" || row.Args["retries"] != 2.0 {
		t.Errorf("row args = %v", row.Args)
	}
	if evs[1].Phase != "i" || evs[1].Args["kind"] != "error" {
		t.Errorf("instant event = %+v", evs[1])
	}
}

func TestReadEventsRejectsGarbageWithLineNumber(t *testing.T) {
	_, err := ReadEvents(strings.NewReader("{\"name\":\"ok\",\"ph\":\"i\",\"ts\":0,\"pid\":0,\"tid\":0}\nnot json\n"))
	var pe *TraceParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want TraceParseError", err)
	}
	if pe.Line != 2 {
		t.Fatalf("bad line reported as %d, want 2", pe.Line)
	}
}

func TestTraceWriterStickyError(t *testing.T) {
	tw := NewTraceWriter(failWriter{})
	for i := 0; i < 100; i++ {
		tw.emit("x", "", 0, SpanContext{}, "", time.Now(), 0, nil)
	}
	if tw.Flush() == nil {
		t.Fatal("write error swallowed")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestTraceWriterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tw.emit("row", "sweep", int64(w), SpanContext{}, "", time.Now(), time.Microsecond, nil)
			}
		}(w)
	}
	wg.Wait()
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadEvents(&buf)
	if err != nil {
		t.Fatalf("interleaved writes corrupted the stream: %v", err)
	}
	if len(evs) != 8*200 {
		t.Fatalf("read %d events, want %d", len(evs), 8*200)
	}
}

// TestTraceWriterConcurrentSpansComplete is the stronger concurrency
// contract: N goroutines emitting distinct, identifiable span events
// through one writer must yield a stream that parses line-by-line AND
// contains every event exactly once with its payload intact — a torn
// or interleaved line would either fail to parse or merge/lose
// payloads. Run under -race via `make check`.
func TestTraceWriterConcurrentSpansComplete(t *testing.T) {
	const goroutines, perG = 16, 150
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tw.SetProcess("test-proc")
	scs := make([]SpanContext, goroutines)
	for w := range scs {
		scs[w] = NewSpanContext()
	}
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				args := appendArgs(nil, []KV{KN("g", float64(w)), KN("i", float64(i))})
				switch i % 3 {
				case 0:
					tw.emit("row", "sweep", int64(w), scs[w].Child(), scs[w].SpanID,
						time.Now(), time.Microsecond, args)
				case 1:
					tw.emit("fault", "fault", int64(w), scs[w], "", time.Now(), 0, args)
				default:
					tw.emit("row", "sweep", int64(w), SpanContext{}, "", time.Now(), time.Microsecond, args)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("concurrent span writes corrupted the stream: %v", err)
	}
	if len(evs) != goroutines*perG {
		t.Fatalf("read %d events, want %d", len(evs), goroutines*perG)
	}
	seen := make([][]bool, goroutines)
	for i := range seen {
		seen[i] = make([]bool, perG)
	}
	for _, e := range evs {
		if e.Proc != "test-proc" {
			t.Fatalf("event lost its process stamp: %+v", e)
		}
		g := int(e.Args["g"].(float64))
		i := int(e.Args["i"].(float64))
		if seen[g][i] {
			t.Fatalf("event g=%d i=%d appeared twice", g, i)
		}
		seen[g][i] = true
		if i%3 == 0 {
			if e.Trace != scs[g].TraceID || e.Parent != scs[g].SpanID || !(SpanContext{TraceID: e.Trace, SpanID: e.Span}).Valid() {
				t.Fatalf("span identity mangled: %+v (want trace %s parent %s)", e, scs[g].TraceID, scs[g].SpanID)
			}
		}
	}
	for g := range seen {
		for i, ok := range seen[g] {
			if !ok {
				t.Fatalf("event g=%d i=%d missing from the stream", g, i)
			}
		}
	}
}

func TestTraceSpanFieldsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	sc := NewSpanContext()
	tw.emit("job", "serve", 0, sc, "feedbeefcafe0001", time.Now(), time.Millisecond, nil)
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadEvents(&buf)
	if err != nil || len(evs) != 1 {
		t.Fatalf("ReadEvents = %v, %d events", err, len(evs))
	}
	e := evs[0]
	if e.Trace != sc.TraceID || e.Span != sc.SpanID || e.Parent != "feedbeefcafe0001" {
		t.Fatalf("span fields did not round-trip: %+v", e)
	}
}

// TestEncoderRoundTrip drives the one event encoder through a sink to
// both artifacts: escapes, fractional and integral numbers, booleans
// and empty span fields must decode to the same values from the trace
// line and from the flight slot.
func TestEncoderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	fr := NewFlightRecorder(4)
	sink := NewSink(tw, fr)
	nasty := "q\"b\\s\n\t\r\x01é"
	sink.Emit("row", "sweep", 0, SpanContext{}, "", time.Now(), 1500*time.Nanosecond,
		KS("kernel", nasty), KN("frac", 0.125), KN("neg", -3), KN("big", 1e300),
		KB("accepted", true), KB("verified", false))
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadEvents(&buf)
	if err != nil || len(evs) != 1 {
		t.Fatalf("ReadEvents = %v, %d events", err, len(evs))
	}
	e := evs[0]
	if e.Trace != "" || e.Span != "" || e.Parent != "" || e.Proc != "" {
		t.Fatalf("empty identity fields were written: %+v", e)
	}
	if e.Phase != "X" || e.Dur != 1.5 {
		t.Fatalf("phase %q dur %g, want X and 1.5us", e.Phase, e.Dur)
	}
	flight := fr.Events()
	if len(flight) != 1 || flight[0].Kind != "row" {
		t.Fatalf("flight ring = %+v", flight)
	}
	want := map[string]any{"kernel": nasty, "frac": 0.125, "neg": -3.0, "big": 1e300,
		"accepted": true, "verified": false}
	for name, args := range map[string]map[string]any{"trace": e.Args, "flight": flight[0].Args} {
		if !reflect.DeepEqual(args, want) {
			t.Errorf("%s args = %#v, want %#v", name, args, want)
		}
	}
}

// TestSinkFansOutAndNilIsSafe: one Emit lands in both artifacts under
// one name, a sink with one artifact records only there, and the nil
// sink records nothing without a guard at the call site.
func TestSinkFansOutAndNilIsSafe(t *testing.T) {
	if NewSink(nil, nil) != nil {
		t.Fatal("a sink over no artifact is not nil")
	}
	var none *Sink
	none.Emit("lease", "dist", 0, NewSpanContext(), "", time.Now(), 0, KN("row", 1))
	if err := none.Flush(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	fr := NewFlightRecorder(8)
	sc := NewSpanContext()
	both := NewSink(tw, fr)
	both.Emit("lease", "dist", 0, sc, "feedbeefcafe0001", time.Now(), 0, KN("row", 7))
	NewSink(nil, fr).Emit("shed", "serve", 0, SpanContext{}, "", time.Now(), 0, KS("reason", "queue_full"))
	if err := both.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadEvents(&buf)
	if err != nil || len(evs) != 1 {
		t.Fatalf("trace holds %d events (%v), want the lease only", len(evs), err)
	}
	if e := evs[0]; e.Name != "lease" || e.Phase != "i" || e.Span != sc.SpanID || e.Parent != "feedbeefcafe0001" {
		t.Fatalf("trace event = %+v", e)
	}
	flight := fr.Events()
	if len(flight) != 2 || flight[0].Kind != "lease" || flight[0].Args["row"] != 7.0 || flight[1].Kind != "shed" {
		t.Fatalf("flight ring = %+v", flight)
	}
}
