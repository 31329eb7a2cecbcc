package obs

import "time"

// Sink is a process's one destination for runtime events. It owns the
// process's trace writer and flight recorder, either of which may be
// absent, and hands every event to each one it has: the same event
// lands in both artifacts under the same name, from one Emit call at
// the site that observed it. A nil *Sink records nothing, so emit
// sites need no guard.
type Sink struct {
	trace  *TraceWriter
	flight *FlightRecorder
}

// NewSink returns the sink over tw and fr; either may be nil. With
// both nil it returns nil, the sink that records nothing.
func NewSink(tw *TraceWriter, fr *FlightRecorder) *Sink {
	if tw == nil && fr == nil {
		return nil
	}
	return &Sink{trace: tw, flight: fr}
}

// Emit records one event. A positive d makes it a span covering
// [start, start+d], a zero d an instant at start. sc names the event's
// own span — leave SpanID empty for events that are not themselves a
// span other events hang off — and parent links it to the span that
// caused it, possibly in another process; both may be empty. In the
// trace the event is a line carrying all of that; in the flight
// recorder it is a slot holding its name as the kind, its end time and
// kvs.
func (s *Sink) Emit(name, cat string, tid int64, sc SpanContext, parent string, start time.Time, d time.Duration, kvs ...KV) {
	if s == nil {
		return
	}
	// The arguments are encoded once, for both artifacts, into a
	// buffer that stays on the stack for any ordinary event.
	var buf [512]byte
	args := buf[:0]
	if len(kvs) > 0 {
		args = appendArgs(args, kvs)
	}
	if s.trace != nil {
		s.trace.emit(name, cat, tid, sc, parent, start, d, args)
	}
	if s.flight != nil {
		s.flight.record(name, start.Add(d), args)
	}
}

// Flush drains the trace writer's buffer, if the sink has one, and
// returns its first write error.
func (s *Sink) Flush() error {
	if s == nil || s.trace == nil {
		return nil
	}
	return s.trace.Flush()
}
