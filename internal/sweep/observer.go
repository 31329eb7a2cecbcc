package sweep

import (
	"io"
	"time"

	"gpuscale/internal/hw"
	"gpuscale/internal/obs"
)

// Observer receives sweep runtime events, one per kernel row plus one
// per retry. Methods are invoked from worker goroutines, concurrently,
// so implementations must be safe for concurrent use. A nil
// Options.Observer costs one predictable branch per row (benchmarked
// via `make bench-obs`); no event fires per cell on the nil-observer
// path or on a cell's first attempt.
//
// Observers are strictly read-only taps: the runtime never lets an
// observer influence scheduling, retries, noise draws, or results, so
// an observed sweep is byte-identical to an unobserved one.
type Observer interface {
	// SweepStart fires once, before any row runs: the sweep shape and
	// how many cells a Resume reused from the prior matrix.
	SweepStart(kernels, configs, skipped int)
	// Retry fires after every retry of a cell: its 1-based attempt
	// number (2 or more), the duration of its one-element EvalBatch
	// call (backoff excluded), and the error it retried — the previous
	// attempt's failure, never nil.
	Retry(row int, kernel string, cfg hw.Config, attempt int, d time.Duration, cause error)
	// BreakerTripped fires when a kernel row's circuit breaker opens
	// after `consecutive` hard failures; the row's remaining cells are
	// about to be quarantined.
	BreakerTripped(row int, kernel string, consecutive int)
	// RowDone fires once per row the sweep settles — rows a Resume
	// reused excepted — with the row's cells by status, its engine work
	// and its timing.
	RowDone(r RowReport)
	// SweepEnd fires once with the final report, after every worker
	// has drained.
	SweepEnd(rep *RunReport)
}

// NopObserver is an Observer that ignores every event — the default
// stand-in when callers want the instrumented code path without any
// sink attached.
type NopObserver struct{}

func (NopObserver) SweepStart(int, int, int)                                {}
func (NopObserver) Retry(int, string, hw.Config, int, time.Duration, error) {}
func (NopObserver) BreakerTripped(int, string, int)                         {}
func (NopObserver) RowDone(RowReport)                                       {}
func (NopObserver) SweepEnd(*RunReport)                                     {}

// Metric names the Telemetry observer registers. Exported so CLIs,
// dashboards and tests agree on the contract (see DESIGN.md,
// "Observing a sweep").
const (
	// MetricCells is a gauge holding the sweep's total cell count.
	MetricCells = "sweep_cells_total"
	// MetricCellsDone counts settled cells, labelled
	// status="ok|failed|canceled|quarantined|skipped"; it advances once
	// per settled row.
	MetricCellsDone = "sweep_cells_done_total"
	// MetricRowsDone counts settled kernel rows.
	MetricRowsDone = "sweep_rows_done_total"
	// MetricAttempts counts simulator invocations.
	MetricAttempts = "sweep_attempts_total"
	// MetricRetries counts invocations beyond each cell's first.
	MetricRetries = "sweep_retries_total"
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
// (counters, gauges, the queue-wait histogram), emits each event once
// to an obs.Sink — the trace and the flight recorder — and optionally
// drives a throttled progress line. All sinks are safe for the
// runtime's concurrent delivery.
type Telemetry struct {
	reg  *obs.Registry
	sink *obs.Sink

	cells           *obs.Gauge
	doneOK          *obs.Counter
	doneFailed      *obs.Counter
	doneCanceled    *obs.Counter
	doneQuarantined *obs.Counter
	doneSkipped     *obs.Counter
	rowsDone        *obs.Counter
	attempts        *obs.Counter
	retries         *obs.Counter
	breakerTrips    *obs.Counter
	queueWait       *obs.Histogram
	journalAppends  *obs.Counter
	journalErrors   *obs.Counter

	progress  *obs.Progress
	progressW io.Writer

	// span, when valid, is the distributed-trace identity of the span
	// enclosing this sweep (a worker's leased row, a service's job).
	// Every emitted event then carries the trace ID with Parent set to
	// span.SpanID, which is what lets sweeptrace stitch a worker's row
	// events under the coordinator's lease grant. Sweep events carry no
	// span IDs of their own.
	span obs.SpanContext

	sweepStart time.Time
}

var _ Observer = (*Telemetry)(nil)

// NewTelemetry builds a Telemetry observer over reg (a fresh registry
// is created when nil) and sink (nil records no events).
func NewTelemetry(reg *obs.Registry, sink *obs.Sink) *Telemetry {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	t := &Telemetry{
		reg:             reg,
		sink:            sink,
		cells:           reg.Gauge(MetricCells, "total cells in the sweep"),
		doneOK:          reg.Counter(MetricCellsDone, "settled cells by status", obs.L("status", "ok")),
		doneFailed:      reg.Counter(MetricCellsDone, "", obs.L("status", "failed")),
		doneCanceled:    reg.Counter(MetricCellsDone, "", obs.L("status", "canceled")),
		doneQuarantined: reg.Counter(MetricCellsDone, "", obs.L("status", "quarantined")),
		doneSkipped:     reg.Counter(MetricCellsDone, "", obs.L("status", "skipped")),
		rowsDone:        reg.Counter(MetricRowsDone, "settled kernel rows"),
		attempts:        reg.Counter(MetricAttempts, "simulator invocations"),
		retries:         reg.Counter(MetricRetries, "invocations beyond each cell's first"),
		breakerTrips:    reg.Counter(MetricBreakerTrips, "kernel rows whose circuit breaker opened"),
		queueWait:       reg.Histogram(MetricQueueWait, "row queue wait (s)", nil),
		journalAppends:  reg.Counter(MetricJournalAppends, "journal row checkpoints"),
		journalErrors:   reg.Counter(MetricJournalErrors, "failed journal checkpoints"),
	}
	t.progress = obs.NewProgress(func() uint64 {
		return t.doneOK.Value() + t.doneFailed.Value() + t.doneCanceled.Value() +
			t.doneQuarantined.Value() + t.doneSkipped.Value()
	})
	return t
}

// SetSpanContext joins this sweep's events to a distributed trace:
// every event carries sc's trace ID with sc.SpanID as its parent.
// Call before the sweep starts; events are emitted concurrently.
func (t *Telemetry) SetSpanContext(sc obs.SpanContext) { t.span = sc }

// emit hands one sweep event to the sink under the sweep's trace
// identity.
func (t *Telemetry) emit(name, cat string, tid int64, start time.Time, d time.Duration, kvs ...obs.KV) {
	t.sink.Emit(name, cat, tid, obs.SpanContext{TraceID: t.span.TraceID}, t.span.SpanID, start, d, kvs...)
}

// Registry returns the backing metrics registry (for /metrics).
func (t *Telemetry) Registry() *obs.Registry { return t.reg }

// Progress returns the progress reporter (for /progress).
func (t *Telemetry) Progress() *obs.Progress { return t.progress }

// EmitProgress turns on the throttled progress line: at most one line
// per interval is written to w as rows settle, plus a final
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
	t.doneSkipped.Add(uint64(skipped))
	t.progress.SetTotal(uint64(kernels * configs))
	t.emit("sweep.start", "sweep", 0, t.sweepStart, 0,
		obs.KN("kernels", float64(kernels)), obs.KN("configs", float64(configs)), obs.KN("skipped", float64(skipped)))
}

// Retry implements Observer.
func (t *Telemetry) Retry(row int, kernel string, cfg hw.Config, attempt int, d time.Duration, cause error) {
	t.retries.Inc()
	t.emit("attempt", "sweep", int64(row), time.Now().Add(-d), d,
		obs.KS("kernel", kernel),
		obs.KN("cus", float64(cfg.CUs)),
		obs.KN("core_mhz", cfg.CoreClockMHz),
		obs.KN("mem_mhz", cfg.MemClockMHz),
		obs.KN("attempt", float64(attempt)),
		obs.KS("err", cause.Error()))
}

// BreakerTripped implements Observer.
func (t *Telemetry) BreakerTripped(row int, kernel string, consecutive int) {
	t.breakerTrips.Inc()
	t.emit("breaker", "sweep", int64(row), time.Now(), 0,
		obs.KS("kernel", kernel), obs.KN("consecutive_failures", float64(consecutive)))
}

// RowDone implements Observer: the row's cells land on the status
// counters in one add each, with one row span carrying the same
// accounting.
func (t *Telemetry) RowDone(r RowReport) {
	t.rowsDone.Inc()
	t.doneOK.Add(uint64(r.OK))
	t.doneFailed.Add(uint64(r.Failed))
	t.doneCanceled.Add(uint64(r.Canceled))
	t.doneQuarantined.Add(uint64(r.Quarantined))
	t.attempts.Add(uint64(r.Attempts))
	t.queueWait.Observe(r.QueueWait.Seconds())
	t.emit("row", "sweep", int64(r.Row), time.Now().Add(-r.Compute), r.Compute,
		obs.KS("kernel", r.Kernel),
		obs.KN("queue_wait_us", float64(r.QueueWait)/float64(time.Microsecond)),
		obs.KN("ok", float64(r.OK)),
		obs.KN("failed", float64(r.Failed)),
		obs.KN("canceled", float64(r.Canceled)),
		obs.KN("quarantined", float64(r.Quarantined)),
		obs.KN("attempts", float64(r.Attempts)),
		obs.KN("retries", float64(r.Retries)))
	if t.progressW != nil {
		t.progress.MaybeEmit(t.progressW)
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
	t.emit("sweep", "sweep", 0, t.sweepStart, rep.WallTime,
		obs.KN("cells", float64(rep.Cells)), obs.KN("ok", float64(rep.OK)),
		obs.KN("failed", float64(rep.Failed)), obs.KN("canceled", float64(rep.Canceled)),
		obs.KN("quarantined", float64(rep.Quarantined)), obs.KN("skipped", float64(rep.Skipped)),
		obs.KN("attempts", float64(rep.Attempts)), obs.KN("retries", float64(rep.Retries)),
		obs.KN("breaker_trips", float64(rep.BreakerTrips)))
	t.sink.Flush()
	if t.progressW != nil {
		t.progress.Emit(t.progressW)
	}
}

// JournalAppend records one journal checkpoint (not part of the
// Observer interface — journals are wired through Options.OnRow, so
// the CLI calls this from the same closure that appends the row).
func (t *Telemetry) JournalAppend(kernel string, d time.Duration, err error) {
	t.journalAppends.Inc()
	kvs := []obs.KV{obs.KS("kernel", kernel)}
	if err != nil {
		t.journalErrors.Inc()
		kvs = append(kvs, obs.KS("err", err.Error()))
	}
	t.emit("journal.append", "journal", 0, time.Now().Add(-d), d, kvs...)
}
