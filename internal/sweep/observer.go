package sweep

import (
	"io"
	"time"

	"gpuscale/internal/hw"
	"gpuscale/internal/obs"
)

// Observer receives sweep runtime events. Methods are invoked from
// worker goroutines, concurrently, so implementations must be safe for
// concurrent use; they must also be fast — every call sits on the
// measurement hot path. A nil Options.Observer costs one predictable
// branch per event site (benchmarked via `make bench-obs`).
//
// Observers are strictly read-only taps: the runtime never lets an
// observer influence scheduling, retries, noise draws, or results, so
// an observed sweep is byte-identical to an unobserved one.
type Observer interface {
	// CellTiming reports whether the observer consumes per-cell and
	// per-attempt durations. When false, the runtime skips the
	// monotonic clock read each one costs — on a ~1µs simulated cell a
	// single read is ~5% overhead, the entire bench-obs budget — and
	// delivers CellAttempt/CellDone with zero durations. Row- and
	// sweep-level timing is always measured; it is amortized over
	// hundreds of cells.
	CellTiming() bool
	// SweepStart fires once, before any cell runs: the sweep shape and
	// how many cells a Resume reused from the prior matrix.
	SweepStart(kernels, configs, skipped int)
	// CellAttempt fires after every simulator invocation with its
	// 1-based attempt number, duration, and error (nil on success;
	// validation failures arrive as ErrCorruptResult).
	CellAttempt(row int, kernel string, cfg hw.Config, attempt int, d time.Duration, err error)
	// CellDone fires when a cell reaches a terminal status. attempts
	// is the simulator invocations the cell consumed (0 when it was
	// canceled or quarantined before running); d spans first attempt
	// to settlement.
	CellDone(row int, kernel string, cfg hw.Config, status CellStatus, attempts int, d time.Duration)
	// BreakerTripped fires when a kernel row's circuit breaker opens
	// after `consecutive` hard failures; the row's remaining cells are
	// about to be quarantined.
	BreakerTripped(row int, kernel string, consecutive int)
	// RowQuarantined fires when a whole row — or the remainder of one —
	// settles wholesale without the engine running: the sweep-level
	// quarantine brake or an in-row breaker trip (StatusQuarantined),
	// or a failed row preparation (StatusFailed). It replaces the
	// per-cell CellDone stream for those cells, which never ran.
	RowQuarantined(row int, kernel string, status CellStatus, cells int)
	// RowDone fires when a kernel row settles. queueWait is how long
	// the row waited between sweep start and worker pickup; d is the
	// row's compute duration.
	RowDone(row int, kernel string, queueWait, d time.Duration)
	// SweepEnd fires once with the final report, after every worker
	// has drained.
	SweepEnd(rep *RunReport)
}

// NopObserver is an Observer that ignores every event — the default
// stand-in when callers want the instrumented code path without any
// sink attached.
type NopObserver struct{}

func (NopObserver) CellTiming() bool                                                { return false }
func (NopObserver) SweepStart(int, int, int)                                        {}
func (NopObserver) CellAttempt(int, string, hw.Config, int, time.Duration, error)   {}
func (NopObserver) CellDone(int, string, hw.Config, CellStatus, int, time.Duration) {}
func (NopObserver) BreakerTripped(int, string, int)                                 {}
func (NopObserver) RowQuarantined(int, string, CellStatus, int)                     {}
func (NopObserver) RowDone(int, string, time.Duration, time.Duration)               {}
func (NopObserver) SweepEnd(*RunReport)                                             {}

// Metric names the Telemetry observer registers. Exported so CLIs,
// dashboards and tests agree on the contract (see DESIGN.md,
// "Observing a sweep").
const (
	// MetricCells is a gauge holding the sweep's total cell count.
	MetricCells = "sweep_cells_total"
	// MetricCellsDone counts settled cells, labelled
	// status="ok|failed|canceled|skipped".
	MetricCellsDone = "sweep_cells_done_total"
	// MetricRowsDone counts settled kernel rows.
	MetricRowsDone = "sweep_rows_done_total"
	// MetricAttempts counts simulator invocations.
	MetricAttempts = "sweep_attempts_total"
	// MetricRetries counts invocations beyond each cell's first.
	MetricRetries = "sweep_retries_total"
	// MetricCellLatency is a histogram of per-cell settle latency in
	// seconds (first attempt through terminal status).
	MetricCellLatency = "sweep_cell_latency_seconds"
	// MetricQueueWait is a histogram of row queue wait in seconds
	// (sweep start to worker pickup).
	MetricQueueWait = "sweep_queue_wait_seconds"
	// MetricJournalAppends counts journal row checkpoints.
	MetricJournalAppends = "sweep_journal_appends_total"
	// MetricJournalErrors counts failed journal checkpoints.
	MetricJournalErrors = "sweep_journal_errors_total"
	// MetricBreakerTrips counts kernel rows whose circuit breaker
	// opened (Options.Breaker consecutive hard failures).
	MetricBreakerTrips = "sweep_breaker_trips_total"
	// MetricPreparedRows counts kernel rows prepared and evaluated
	// (Options.Row, or the engine default). Published at SweepEnd, and
	// only when the sweep evaluated at least one row.
	MetricPreparedRows = "sweep_prepared_rows_total"
	// MetricResidentSetMemoHits / MetricResidentSetMemoMisses count
	// resident-set pipeline simulations served from (or inserted into)
	// each row's memo; hits are configurations that shared a
	// (resident WGs, waves/WG, latency, policy) tuple with an earlier
	// cell in the same row.
	MetricResidentSetMemoHits   = "sweep_residentset_memo_hits_total"
	MetricResidentSetMemoMisses = "sweep_residentset_memo_misses_total"
	// MetricHitRateMemoHits / MetricHitRateMemoMisses are the same for
	// the cache-hit-rate model memo.
	MetricHitRateMemoHits   = "sweep_hitrate_memo_hits_total"
	MetricHitRateMemoMisses = "sweep_hitrate_memo_misses_total"
	// MetricBatchedRows counts kernel rows whose first attempts ran
	// through one whole-axis EvalBatch call.
	MetricBatchedRows = "sweep_batched_rows_total"
	// MetricBatchFallbackCells counts cells that needed one-cell
	// EvalBatch calls of their own: retried cells, plus every cell of
	// rows whose whole-row call failed.
	MetricBatchFallbackCells = "sweep_batch_fallback_cells_total"
)

// Telemetry is the production Observer: it feeds an obs.Registry
// (counters, gauges, latency histograms), optionally emits spans to an
// obs.TraceWriter, and optionally drives a throttled progress line.
// All sinks are safe for the runtime's concurrent delivery.
type Telemetry struct {
	reg *obs.Registry
	tw  *obs.TraceWriter

	cells           *obs.Gauge
	doneOK          *obs.Counter
	doneFailed      *obs.Counter
	doneCanceled    *obs.Counter
	doneStalled     *obs.Counter
	doneQuarantined *obs.Counter
	doneSkipped     *obs.Counter
	rowsDone        *obs.Counter
	attempts        *obs.Counter
	retries         *obs.Counter
	breakerTrips    *obs.Counter
	cellLatency     *obs.Histogram
	queueWait       *obs.Histogram
	journalAppends  *obs.Counter
	journalErrors   *obs.Counter

	progress  *obs.Progress
	progressW io.Writer

	// span, when valid, is the distributed-trace identity of the span
	// enclosing this sweep (a worker's leased row, a service's job).
	// Every emitted event then carries the trace ID with Parent set to
	// span.SpanID, which is what lets sweeptrace stitch a worker's cell
	// stream under the coordinator's lease grant. Leaf events carry no
	// span IDs of their own — minting one per cell would put a
	// crypto/rand read on the measurement hot path.
	span obs.SpanContext
	// flight, when non-nil, receives retry and breaker-trip events for
	// the crash flight recorder.
	flight *obs.FlightRecorder

	sweepStart time.Time
}

var _ Observer = (*Telemetry)(nil)

// NewTelemetry builds a Telemetry observer over reg (a fresh registry
// is created when nil) and tw (nil disables tracing).
func NewTelemetry(reg *obs.Registry, tw *obs.TraceWriter) *Telemetry {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	t := &Telemetry{
		reg:             reg,
		tw:              tw,
		cells:           reg.Gauge(MetricCells, "total cells in the sweep"),
		doneOK:          reg.Counter(MetricCellsDone, "settled cells by status", obs.L("status", "ok")),
		doneFailed:      reg.Counter(MetricCellsDone, "", obs.L("status", "failed")),
		doneCanceled:    reg.Counter(MetricCellsDone, "", obs.L("status", "canceled")),
		doneStalled:     reg.Counter(MetricCellsDone, "", obs.L("status", "stalled")),
		doneQuarantined: reg.Counter(MetricCellsDone, "", obs.L("status", "quarantined")),
		doneSkipped:     reg.Counter(MetricCellsDone, "", obs.L("status", "skipped")),
		rowsDone:        reg.Counter(MetricRowsDone, "settled kernel rows"),
		attempts:        reg.Counter(MetricAttempts, "simulator invocations"),
		retries:         reg.Counter(MetricRetries, "invocations beyond each cell's first"),
		breakerTrips:    reg.Counter(MetricBreakerTrips, "kernel rows whose circuit breaker opened"),
		cellLatency:     reg.Histogram(MetricCellLatency, "per-cell settle latency (s)", nil),
		queueWait:       reg.Histogram(MetricQueueWait, "row queue wait (s)", nil),
		journalAppends:  reg.Counter(MetricJournalAppends, "journal row checkpoints"),
		journalErrors:   reg.Counter(MetricJournalErrors, "failed journal checkpoints"),
	}
	t.progress = obs.NewProgress(func() uint64 {
		return t.doneOK.Value() + t.doneFailed.Value() + t.doneCanceled.Value() +
			t.doneStalled.Value() + t.doneQuarantined.Value() + t.doneSkipped.Value()
	})
	return t
}

// CellTiming implements Observer: Telemetry feeds latency histograms
// and spans, so it pays for per-cell clock reads.
func (t *Telemetry) CellTiming() bool { return true }

// SetSpanContext joins this sweep's events to a distributed trace:
// every event carries sc's trace ID with sc.SpanID as its parent.
// Call before the sweep starts; events are emitted concurrently.
func (t *Telemetry) SetSpanContext(sc obs.SpanContext) { t.span = sc }

// SetFlight wires the crash flight recorder: retries and breaker
// trips are recorded so a post-mortem ring shows what the sweep was
// fighting when the process died.
func (t *Telemetry) SetFlight(fr *obs.FlightRecorder) { t.flight = fr }

// emitComplete routes a completed span through the trace writer,
// attaching distributed-trace identity when one is set.
func (t *Telemetry) emitComplete(name, cat string, tid int64, start time.Time, d time.Duration, args map[string]any) {
	if t.span.Valid() {
		t.tw.CompleteSpan(name, cat, tid, obs.SpanContext{TraceID: t.span.TraceID}, t.span.SpanID, start, d, args)
		return
	}
	t.tw.Complete(name, cat, tid, start, d, args)
}

// emitInstant is emitComplete for instant markers.
func (t *Telemetry) emitInstant(name, cat string, tid int64, args map[string]any) {
	if t.span.Valid() {
		t.tw.InstantSpan(name, cat, tid, obs.SpanContext{TraceID: t.span.TraceID}, t.span.SpanID, args)
		return
	}
	t.tw.Instant(name, cat, tid, args)
}

// emitLeaf is the per-cell span path: typed KV args and a hand-rolled
// encoder instead of map[string]any plus reflection. Two of these fire
// per cell (attempt + cell), so their cost IS the tracing overhead
// budget — see TestTracedSweepOverhead.
func (t *Telemetry) emitLeaf(name string, tid int64, start time.Time, d time.Duration, kvs ...obs.KV) {
	t.tw.CompleteSpanFast(name, "sweep", tid, t.span.TraceID, t.span.SpanID, start, d, kvs...)
}

// Registry returns the backing metrics registry (for /metrics).
func (t *Telemetry) Registry() *obs.Registry { return t.reg }

// Progress returns the progress reporter (for /progress).
func (t *Telemetry) Progress() *obs.Progress { return t.progress }

// EmitProgress turns on the throttled progress line: at most one line
// per interval is written to w as cells settle, plus a final
// unthrottled line at SweepEnd. Sweep workers emit concurrently, so w
// must be safe for concurrent use (os.Stderr is).
func (t *Telemetry) EmitProgress(w io.Writer, interval time.Duration) {
	t.progress.Interval = interval
	t.progressW = w
}

// SweepStart implements Observer.
func (t *Telemetry) SweepStart(kernels, configs, skipped int) {
	t.sweepStart = time.Now()
	t.cells.Set(float64(kernels * configs))
	if skipped > 0 {
		t.doneSkipped.Add(uint64(skipped))
	}
	t.progress.SetTotal(uint64(kernels * configs))
	if t.tw != nil {
		t.emitInstant("sweep.start", "sweep", 0, map[string]any{
			"kernels": kernels, "configs": configs, "skipped": skipped,
		})
	}
}

// CellAttempt implements Observer.
func (t *Telemetry) CellAttempt(row int, kernel string, cfg hw.Config, attempt int, d time.Duration, err error) {
	t.attempts.Inc()
	if attempt > 1 {
		t.retries.Inc()
		if t.flight != nil {
			args := map[string]any{"kernel": kernel, "row": row, "attempt": attempt}
			if err != nil {
				args["err"] = err.Error()
			}
			t.flight.Record("retry", args)
		}
	}
	if t.tw != nil {
		kvs := []obs.KV{
			obs.KS("kernel", kernel),
			obs.KN("cus", float64(cfg.CUs)),
			obs.KN("core_mhz", cfg.CoreClockMHz),
			obs.KN("mem_mhz", cfg.MemClockMHz),
			obs.KN("attempt", float64(attempt)),
		}
		if err != nil {
			kvs = append(kvs, obs.KS("err", err.Error()))
		}
		t.emitLeaf("attempt", int64(row), time.Now().Add(-d), d, kvs...)
	}
}

// CellDone implements Observer.
func (t *Telemetry) CellDone(row int, kernel string, cfg hw.Config, status CellStatus, attempts int, d time.Duration) {
	switch status {
	case StatusFailed:
		t.doneFailed.Inc()
	case StatusCanceled:
		t.doneCanceled.Inc()
	case StatusStalled:
		t.doneStalled.Inc()
	case StatusQuarantined:
		t.doneQuarantined.Inc()
	default:
		t.doneOK.Inc()
	}
	t.cellLatency.Observe(d.Seconds())
	if t.tw != nil {
		t.emitLeaf("cell", int64(row), time.Now().Add(-d), d,
			obs.KS("kernel", kernel),
			obs.KN("cus", float64(cfg.CUs)),
			obs.KN("core_mhz", cfg.CoreClockMHz),
			obs.KN("mem_mhz", cfg.MemClockMHz),
			obs.KS("status", status.String()),
			obs.KN("attempts", float64(attempts)))
	}
	if t.progressW != nil {
		t.progress.MaybeEmit(t.progressW)
	}
}

// BreakerTripped implements Observer.
func (t *Telemetry) BreakerTripped(row int, kernel string, consecutive int) {
	t.breakerTrips.Inc()
	if t.flight != nil {
		t.flight.Record("breaker", map[string]any{
			"kernel": kernel, "row": row, "consecutive_failures": consecutive})
	}
	if t.tw != nil {
		t.emitInstant("breaker", "sweep", int64(row), map[string]any{
			"kernel": kernel, "consecutive_failures": consecutive,
		})
	}
}

// RowQuarantined implements Observer: the whole batch lands on one
// status counter in a single add, with one trace instant instead of a
// per-cell span fan-out (no cell ran, so there is no latency to
// observe).
func (t *Telemetry) RowQuarantined(row int, kernel string, status CellStatus, cells int) {
	switch status {
	case StatusFailed:
		t.doneFailed.Add(uint64(cells))
	default:
		t.doneQuarantined.Add(uint64(cells))
	}
	if t.tw != nil {
		t.emitInstant("row.quarantine", "sweep", int64(row), map[string]any{
			"kernel": kernel, "status": status.String(), "cells": cells,
		})
	}
	if t.progressW != nil {
		t.progress.MaybeEmit(t.progressW)
	}
}

// RowDone implements Observer.
func (t *Telemetry) RowDone(row int, kernel string, queueWait, d time.Duration) {
	t.rowsDone.Inc()
	t.queueWait.Observe(queueWait.Seconds())
	if t.tw != nil {
		t.emitComplete("row", "sweep", int64(row), time.Now().Add(-d), d, map[string]any{
			"kernel": kernel, "queue_wait_us": float64(queueWait) / float64(time.Microsecond),
		})
	}
}

// SweepEnd implements Observer. Prepared-row counters are registered
// here rather than in NewTelemetry so sweeps that evaluate no row (a
// resume with every row reused) don't export always-zero series.
func (t *Telemetry) SweepEnd(rep *RunReport) {
	if p := rep.Prepared; p.Rows > 0 {
		t.reg.Counter(MetricPreparedRows, "kernel rows evaluated via the prepared row path").Add(uint64(p.Rows))
		t.reg.Counter(MetricResidentSetMemoHits, "resident-set simulations served from a row memo").Add(uint64(p.ResidentSetHits))
		t.reg.Counter(MetricResidentSetMemoMisses, "resident-set simulations computed and memoized").Add(uint64(p.ResidentSetMisses))
		t.reg.Counter(MetricHitRateMemoHits, "hit-rate model evaluations served from a row memo").Add(uint64(p.HitRateHits))
		t.reg.Counter(MetricHitRateMemoMisses, "hit-rate model evaluations computed and memoized").Add(uint64(p.HitRateMisses))
		t.reg.Counter(MetricBatchedRows, "kernel rows evaluated via one whole-axis batch call").Add(uint64(p.BatchedRows))
		t.reg.Counter(MetricBatchFallbackCells, "cells that needed one-cell batch calls").Add(uint64(p.BatchFallbackCells))
	}
	if t.tw != nil {
		t.emitComplete("sweep", "sweep", 0, t.sweepStart, rep.WallTime, map[string]any{
			"cells": rep.Cells, "ok": rep.OK, "failed": rep.Failed,
			"canceled": rep.Canceled, "stalled": rep.Stalled,
			"quarantined": rep.Quarantined, "skipped": rep.Skipped,
			"attempts": rep.Attempts, "retries": rep.Retries,
			"breaker_trips": rep.BreakerTrips,
		})
		t.tw.Flush()
	}
	if t.progressW != nil {
		t.progress.Emit(t.progressW)
	}
}

// JournalAppend records one journal checkpoint (not part of the
// Observer interface — journals are wired through Options.OnRow, so
// the CLI calls this from the same closure that appends the row).
func (t *Telemetry) JournalAppend(kernel string, d time.Duration, err error) {
	t.journalAppends.Inc()
	if err != nil {
		t.journalErrors.Inc()
	}
	if t.tw != nil {
		args := map[string]any{"kernel": kernel}
		if err != nil {
			args["err"] = err.Error()
		}
		t.emitComplete("journal.append", "journal", 0, time.Now().Add(-d), d, args)
	}
}
