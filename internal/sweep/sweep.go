// Package sweep executes kernel x configuration grids in parallel and
// stores the resulting performance matrices — the data-collection
// harness that stands in for the paper's weeks of hardware runs.
//
// Real measurement campaigns are flaky: individual runs hang, die, or
// return garbage. The runtime therefore treats every cell as fallible:
// it validates results, retries transient failures with capped
// exponential backoff, bounds each simulation with a timeout, honours
// context cancellation, and — instead of aborting the whole sweep —
// records a per-cell Status so partial matrices are first-class and a
// later Resume can fill in only the missing rows.
//
// The executor is additionally crash-only: a panicking engine is
// isolated per cell (the panic becomes a CellFailure with a captured
// stack), supervision is cooperative — the engines themselves return
// once the sweep is canceled or a cell outlives Options.SimTimeout, so
// no engine call is ever abandoned — and a per-kernel circuit breaker
// quarantines the rest of a row after Options.Breaker consecutive hard
// failures instead of burning retry budgets on a kernel that is
// clearly down.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
)

// Engine selects the simulator fidelity used for a sweep.
type Engine int

const (
	// Round uses the fast batch-steady-state engine (default).
	Round Engine = iota
	// Detailed uses the continuous-dispatch quantum engine.
	Detailed
	// Wave uses the wavefront-level event engine (slowest; only for
	// small spaces or validation runs).
	Wave
	// Pipeline uses the execution-driven cycle-level engine. Practical
	// for sweeps because a resident-set run certifies its cycle count
	// as a line in the load latency, so most rows run one cycle
	// simulation in all.
	Pipeline
)

var engineNames = [...]string{"round", "detailed", "wave", "pipeline"}

// String returns the engine's lower-case CLI name.
func (e Engine) String() string {
	if e < 0 || int(e) >= len(engineNames) {
		return fmt.Sprintf("engine(%d)", int(e))
	}
	return engineNames[e]
}

// ParseEngine inverts String.
func ParseEngine(s string) (Engine, error) {
	for i, n := range engineNames {
		if n == s {
			return Engine(i), nil
		}
	}
	return 0, fmt.Errorf("sweep: unknown engine %q (want round, detailed, wave or pipeline)", s)
}

// Row returns the engine's row-granular form: one Prepare per kernel,
// then batched evaluations sharing memoized state.
func (e Engine) Row() gcn.RowEngine {
	switch e {
	case Detailed:
		return gcn.DetailedRow
	case Wave:
		return gcn.WaveRow
	case Pipeline:
		return gcn.PipelineRow
	default:
		return gcn.RoundRow
	}
}

// ErrCorruptResult marks a simulation that returned an unusable value
// (NaN, infinite or non-positive throughput or time). It is treated as
// a transient measurement fault and retried like an error.
var ErrCorruptResult = errors.New("sweep: corrupt result")

// ErrSimTimeout marks a simulation that exceeded Options.SimTimeout.
var ErrSimTimeout = gcn.ErrSimTimeout

// ErrEnginePanic marks a simulator invocation that panicked. The panic
// is confined to its cell: the wrapped error carries the panic value
// and the captured stack, the cell is marked StatusFailed without
// retry (a panicking engine is deterministic breakage, not flakiness),
// and the sweep continues.
var ErrEnginePanic = errors.New("sweep: engine panicked")

// Options configures a sweep run.
type Options struct {
	// Workers is the parallel worker count; <= 0 uses GOMAXPROCS.
	Workers int
	// Engine selects the simulator fidelity.
	Engine Engine
	// Row, when non-nil, overrides Engine with a row-granular engine —
	// the seam where fault injection, instrumentation and custom
	// engines plug in. Each kernel row is prepared once (validation,
	// lowering, derived state) and its whole config axis evaluated in
	// one EvalBatch call (see Breaker); retries re-evaluate single
	// cells through the same call. nil uses Engine.Row().
	Row gcn.RowEngine
	// NoiseStdDev, when positive, multiplies every measured throughput
	// by a lognormal factor exp(N(0, stddev)) to emulate run-to-run
	// measurement noise for robustness experiments. The factor's
	// median is exactly 1, so the noise does not bias the mean the way
	// a clamped 1+N(0,sigma) factor does.
	NoiseStdDev float64
	// Seed drives the noise generator; ignored when NoiseStdDev is 0.
	Seed int64
	// Retries is the number of extra attempts per cell after a failed
	// or corrupt simulation. 0 means every fault is final.
	Retries int
	// Backoff is the sleep before the first retry; it doubles per
	// retry up to maxBackoff. Zero retries immediately.
	Backoff time.Duration
	// SimTimeout bounds each cell's evaluation; expiry counts as a
	// retryable fault. Zero means no bound. The budget is cooperative
	// (gcn.PreparedRow.SetBudget): the cycle-level engines check it in
	// their event loops and return ErrSimTimeout themselves, and the
	// round engine finishes a whole row in microseconds.
	SimTimeout time.Duration
	// Breaker is the per-kernel circuit breaker: after this many
	// consecutive failed cells within one kernel row, the row's
	// remaining cells are marked StatusQuarantined without reaching the
	// engine, so one pathologically broken kernel cannot burn the whole
	// retry or time budget: an armed breaker has the row evaluated
	// Breaker cells per EvalBatch call, and no call follows a trip. 0
	// disables the breaker. Quarantined rows are incomplete, so a later
	// Resume recomputes them.
	Breaker int
	// QuarantineAfter is the sweep-level emergency brake: once this
	// many kernel rows have tripped their circuit breaker, every row
	// not yet started is quarantined wholesale — the failure is
	// systemic (broken engine, dead rig), not per-kernel. 0 disables.
	// Which rows are spared depends on worker scheduling; rerun with
	// Resume after fixing the rig to fill them in.
	QuarantineAfter int
	// OnRow, when non-nil, is called as each kernel row reaches a
	// terminal state, from worker goroutines — it must be safe for
	// concurrent use and should only read row r of m. Journals hook
	// in here to checkpoint completed rows.
	OnRow func(m *Matrix, r int)
	// Observer, when non-nil, receives runtime telemetry events (sweep
	// start and end, one per row, one per retry, breaker trips) from
	// worker goroutines; see the Observer interface. It is a read-only
	// tap: results are byte-identical with or without one. nil disables
	// all instrumentation at the cost of one branch per row.
	Observer Observer
}

// CellStatus records the terminal state of one matrix cell.
type CellStatus uint8

const (
	// StatusOK marks a validated measurement.
	StatusOK CellStatus = iota
	// StatusFailed marks a cell whose attempts were exhausted by
	// errors or corrupt results.
	StatusFailed
	// StatusCanceled marks a cell abandoned because the sweep's
	// context ended before it could run.
	StatusCanceled
	// StatusStalled marks a cell whose engine call ignored context
	// cancellation and was abandoned by a watchdog. Sweeps no longer
	// produce it (every engine honours cancellation) and reports do not
	// count it; it remains so journals and CSVs written by earlier
	// versions still decode, and Resume recomputes its row like any
	// other incomplete one.
	StatusStalled
	// StatusQuarantined marks a cell skipped by the circuit breaker
	// after too many consecutive hard failures in its kernel row; no
	// retry was spent on it and no result is kept for it.
	StatusQuarantined
)

var statusNames = [...]string{"ok", "failed", "canceled", "stalled", "quarantined"}

// String returns the status's lower-case name.
func (s CellStatus) String() string {
	if int(s) >= len(statusNames) {
		return fmt.Sprintf("status(%d)", int(s))
	}
	return statusNames[s]
}

// ParseStatus inverts String.
func ParseStatus(s string) (CellStatus, error) {
	for i, n := range statusNames {
		if n == s {
			return CellStatus(i), nil
		}
	}
	return 0, fmt.Errorf("sweep: unknown cell status %q", s)
}

// Matrix holds the sweep results: one throughput row per kernel, one
// column per configuration in Space.Configs() order.
type Matrix struct {
	// Space is the configuration grid the columns index into.
	Space hw.Space
	// Kernels are the row names, in input order.
	Kernels []string
	// Throughput[r][c] is work-items/ns of kernel r on configuration c.
	// Cells whose Status is not StatusOK hold 0.
	Throughput [][]float64
	// TimeNS[r][c] is the corresponding invocation time.
	TimeNS [][]float64
	// Bound[r][c] is the dominant bound reported by the engine.
	Bound [][]gcn.Bound
	// Status[r][c] is the cell's terminal state. A nil Status (legacy
	// producers) means every cell is StatusOK.
	Status [][]CellStatus

	rowOnce sync.Once
	rowIdx  map[string]int
}

// SettleRow replaces row r with a fresh row of NaN-free zeros and one
// uniform status: how a row that holds no measurements is settled (a
// canceled, quarantined or unpreparable row). A settled row is a value:
// it is replaced whole, by assigning new slices, and never written in
// place, so a reader holding an earlier row keeps reading it unchanged.
func (m *Matrix) SettleRow(r int, status CellStatus) {
	row := NewRow(m.Space.Size(), status)
	m.Throughput[r], m.TimeNS[r], m.Bound[r], m.Status[r] = row.Throughput, row.TimeNS, row.Bound, row.Status
}

// Row returns the row index of a kernel name, or -1. The lookup map is
// built lazily on first use (and is safe for concurrent callers), so
// per-cell lookups over the 267-kernel corpus cost O(1) instead of a
// linear scan per call. Rows appended after the first lookup are not
// visible; treat a Matrix as immutable once handed to readers.
func (m *Matrix) Row(name string) int {
	m.rowOnce.Do(func() {
		m.rowIdx = make(map[string]int, len(m.Kernels))
		for i, k := range m.Kernels {
			if _, dup := m.rowIdx[k]; !dup {
				m.rowIdx[k] = i
			}
		}
	})
	if i, ok := m.rowIdx[name]; ok {
		return i
	}
	return -1
}

// CellOK reports whether cell (r, c) holds a validated measurement.
func (m *Matrix) CellOK(r, c int) bool {
	return m.Status == nil || m.Status[r] == nil || m.Status[r][c] == StatusOK
}

// RowComplete reports whether every cell of row r is StatusOK.
func (m *Matrix) RowComplete(r int) bool {
	if m.Status == nil || m.Status[r] == nil {
		return true
	}
	for _, s := range m.Status[r] {
		if s != StatusOK {
			return false
		}
	}
	return true
}

// CellFailure identifies one cell that exhausted its attempts.
type CellFailure struct {
	// Kernel is the row's kernel name.
	Kernel string
	// Config is the failing configuration.
	Config hw.Config
	// Attempts is how many simulator invocations the cell consumed.
	Attempts int
	// Err is the last attempt's error.
	Err error
}

func (f CellFailure) String() string {
	return fmt.Sprintf("%s @ cu=%d core=%g mem=%g after %d attempt(s): %v",
		f.Kernel, f.Config.CUs, f.Config.CoreClockMHz, f.Config.MemClockMHz, f.Attempts, f.Err)
}

// RunReport accounts for every cell of a sweep: how many succeeded,
// failed or were abandoned, and how much work (attempts, retries) the
// run spent. Partial matrices always travel with a report.
type RunReport struct {
	// Kernels and Configs give the sweep shape.
	Kernels, Configs int
	// Cells is Kernels * Configs.
	Cells int
	// OK, Failed, Canceled and Quarantined partition the cells this
	// run attempted; Skipped counts cells reused from a prior matrix by
	// Resume. OK + Failed + Canceled + Quarantined + Skipped == Cells.
	OK, Failed, Canceled, Quarantined, Skipped int
	// Attempts is the total simulator invocations; Retries is the
	// portion beyond each cell's first attempt.
	Attempts, Retries int
	// BreakerTrips counts kernel rows whose circuit breaker opened
	// (Options.Breaker consecutive hard failures).
	BreakerTrips int
	// Prepared aggregates row-engine memoization across the sweep.
	Prepared PreparedTotals
	// Failures lists each failed cell with its final error. A row whose
	// preparation failed contributes a single record covering every
	// cell in the row (the engine never ran per cell, so there is only
	// one error to report), so len(Failures) can be smaller than Failed
	// but is never zero when it is not.
	Failures []CellFailure
	// WallTime is the end-to-end sweep duration.
	WallTime time.Duration
}

// PreparedTotals sums gcn.PreparedStats over every prepared row of a
// sweep.
type PreparedTotals struct {
	// Rows is how many kernel rows were prepared.
	Rows int
	// ResidentSetHits/Misses count resident-set cycle simulations
	// served from / added to the per-kernel memo.
	ResidentSetHits, ResidentSetMisses int
	// HitRateHits/Misses count cache hit-rate estimates served from /
	// added to the per-kernel memo.
	HitRateHits, HitRateMisses int
	// BatchedRows counts rows whose first attempts all ran through the
	// row's batch calls: one EvalBatch over the whole config axis, or
	// one per chunk of Options.Breaker cells.
	BatchedRows int
	// BatchFallbackCells counts cells that needed one-cell EvalBatch
	// calls of their own: retried cells, plus every cell of a call that
	// failed at the row level.
	BatchFallbackCells int
}

// Complete reports whether every cell holds a validated measurement.
func (r *RunReport) Complete() bool {
	return r.Failed == 0 && r.Canceled == 0 && r.Quarantined == 0
}

// Summary renders a one-line accounting suitable for CLI output.
func (r *RunReport) Summary() string {
	s := fmt.Sprintf("%d cells: %d ok, %d failed, %d canceled, %d quarantined, %d reused (%d attempts, %d retries) in %v",
		r.Cells, r.OK, r.Failed, r.Canceled, r.Quarantined, r.Skipped,
		r.Attempts, r.Retries, r.WallTime.Round(time.Millisecond))
	if r.BreakerTrips > 0 {
		s += fmt.Sprintf("; %d breaker trip(s)", r.BreakerTrips)
	}
	return s
}

// RowReport accounts for one kernel row a sweep settled: its cells by
// terminal status, the engine work they took, and — measured only when
// an Observer is attached — its timing. Observer.RowDone receives one
// per row.
type RowReport struct {
	// Row is the matrix row and Kernel its kernel name.
	Row    int
	Kernel string
	// QueueWait is how long the row waited between sweep start and
	// worker pickup; Compute is pickup to settlement.
	QueueWait, Compute time.Duration
	// OK, Failed, Canceled and Quarantined partition the row's cells.
	OK, Failed, Canceled, Quarantined int
	// Attempts is the row's simulator invocations; Retries is the
	// portion beyond each cell's first attempt.
	Attempts, Retries int
}

// add merges one settled row's cell and attempt counts into the
// report.
func (r *RunReport) add(rr RowReport) {
	r.OK += rr.OK
	r.Failed += rr.Failed
	r.Canceled += rr.Canceled
	r.Quarantined += rr.Quarantined
	r.Attempts += rr.Attempts
	r.Retries += rr.Retries
}

// Run sweeps every kernel over every configuration of the space with
// background context and strict semantics: any cell that fails after
// retries turns the whole sweep into an error, matching the historical
// abort-on-error contract. Use RunContext for graceful degradation.
func Run(kernels []*kernel.Kernel, space hw.Space, opts Options) (*Matrix, error) {
	m, rep, err := RunContext(context.Background(), kernels, space, opts)
	if err != nil {
		return nil, err
	}
	if rep.Failed > 0 {
		return nil, fmt.Errorf("sweep: %d/%d cells failed; first: %s",
			rep.Failed, rep.Cells, rep.Failures[0])
	}
	return m, nil
}

// RunContext sweeps every kernel over every configuration, tolerating
// per-cell failures. Kernels are distributed over a worker pool; each
// worker owns whole rows so the output needs no locking. Failed cells
// are marked in the matrix's Status plane rather than aborting the
// sweep, and the report accounts for every cell. The error is non-nil
// only for unusable input or a canceled context; in the latter case
// the partial matrix and report are still returned.
func RunContext(ctx context.Context, kernels []*kernel.Kernel, space hw.Space, opts Options) (*Matrix, *RunReport, error) {
	return resume(ctx, kernels, space, opts, nil)
}

// Resume completes a partial sweep: rows of prior whose every cell is
// StatusOK are copied into the result verbatim (and counted as Skipped
// in the report); all other rows are recomputed. prior may be nil or
// cover any subset of kernels — rows are matched by kernel name, so
// the corpus may have grown or shrunk between runs.
func Resume(ctx context.Context, kernels []*kernel.Kernel, space hw.Space, opts Options, prior *Matrix) (*Matrix, *RunReport, error) {
	return resume(ctx, kernels, space, opts, prior)
}

func resume(ctx context.Context, kernels []*kernel.Kernel, space hw.Space, opts Options, prior *Matrix) (*Matrix, *RunReport, error) {
	if len(kernels) == 0 {
		return nil, nil, fmt.Errorf("sweep: no kernels")
	}
	configs := gridConfigs(space)
	if len(configs) == 0 {
		return nil, nil, fmt.Errorf("sweep: empty configuration space")
	}
	// Validate the configuration axis once, up front, with a
	// positional error — the engines' Eval methods skip the per-cell
	// re-check, so a bad config must never reach the workers.
	// Config.Validate is a conjunction of per-axis range checks with no
	// cross-field terms, so validating each axis value once decides the
	// whole grid; only when an axis value is bad does the per-config
	// loop run, to produce the same positional error it always has.
	if !space.AxesValid() {
		for i, cfg := range configs {
			if err := cfg.Validate(); err != nil {
				return nil, nil, fmt.Errorf("sweep: config %d of %d (cu=%d core=%g mem=%g): %w",
					i+1, len(configs), cfg.CUs, cfg.CoreClockMHz, cfg.MemClockMHz, err)
			}
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	m := &Matrix{
		Space:      space,
		Kernels:    make([]string, len(kernels)),
		Throughput: make([][]float64, len(kernels)),
		TimeNS:     make([][]float64, len(kernels)),
		Bound:      make([][]gcn.Bound, len(kernels)),
		Status:     make([][]CellStatus, len(kernels)),
	}
	for i, k := range kernels {
		m.Kernels[i] = k.Name
	}
	rep := &RunReport{Kernels: len(kernels), Configs: len(configs), Cells: len(kernels) * len(configs)}

	// Reuse complete rows from the prior matrix before spinning up
	// workers, so resumed sweeps only pay for the holes.
	done := make([]bool, len(kernels))
	if prior != nil {
		for i, k := range kernels {
			pr := prior.Row(k.Name)
			if pr < 0 || len(prior.Throughput[pr]) != len(configs) || !prior.RowComplete(pr) {
				continue
			}
			m.Throughput[i] = prior.Throughput[pr]
			m.TimeNS[i] = prior.TimeNS[pr]
			m.Bound[i] = prior.Bound[pr]
			m.Status[i] = okRow(len(configs))
			done[i] = true
			rep.Skipped += len(configs)
		}
	}

	re := opts.Row
	if re == nil {
		re = opts.Engine.Row()
	}
	o := opts.Observer
	if o != nil {
		o.SweepStart(len(kernels), len(configs), rep.Skipped)
	}

	start := time.Now()
	var mu sync.Mutex      // guards rep tallies beyond Skipped
	var trips atomic.Int64 // kernel rows whose breaker opened, sweep-wide
	doRow := func(row int) {
		// Rows are all queued up front, so queue wait is measured
		// from sweep start to worker pickup.
		var pickup time.Time
		if o != nil {
			pickup = time.Now()
		}
		var rr RowReport
		if opts.QuarantineAfter > 0 && trips.Load() >= int64(opts.QuarantineAfter) {
			// Enough kernels have tripped their breakers that the
			// failure is systemic: quarantine rows that have not
			// started rather than grind through them.
			rr = quarantineRow(kernels[row], len(configs), m, row, rep, &mu)
		} else {
			rr = sweepRow(ctx, re, kernels[row], configs, opts, m, row, rep, &mu, &trips)
		}
		if o != nil {
			rr.QueueWait, rr.Compute = pickup.Sub(start), time.Since(pickup)
			o.RowDone(rr)
		}
		if opts.OnRow != nil {
			opts.OnRow(m, row)
		}
	}
	if workers == 1 {
		// A single worker is sequential either way; running rows on
		// the calling goroutine skips the spawn, the channel
		// handshakes, and a fresh worker stack's growth per run —
		// fixed costs a one-kernel batched sweep otherwise pays on
		// every call.
		for row := range kernels {
			if !done[row] {
				doRow(row)
			}
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for row := range jobs {
					doRow(row)
				}
			}()
		}
		for row := range kernels {
			if !done[row] {
				jobs <- row
			}
		}
		close(jobs)
		wg.Wait()
	}
	rep.WallTime = time.Since(start)
	if o != nil {
		o.SweepEnd(rep)
	}
	return m, rep, ctx.Err()
}

// okRow returns a row of StatusOK cells.
func okRow(n int) []CellStatus { return make([]CellStatus, n) }

// quarantineRow settles every one of a kernel row's cells as
// StatusQuarantined without invoking the engine — the sweep-level
// brake once Options.QuarantineAfter kernels have tripped their
// breakers.
func quarantineRow(k *kernel.Kernel, cells int, m *Matrix, row int, rep *RunReport, mu *sync.Mutex) RowReport {
	m.SettleRow(row, StatusQuarantined)
	rr := RowReport{Row: row, Kernel: k.Name, Quarantined: cells}
	mu.Lock()
	rep.add(rr)
	mu.Unlock()
	return rr
}

// failRowPrepare settles a whole row as failed when its kernel cannot
// be prepared (an invalid kernel, or one that does not fit on a CU).
// No configuration can change either condition, so the row fails once
// with a clear positional error instead of len(configs) identical
// per-cell failures.
func failRowPrepare(k *kernel.Kernel, configs []hw.Config, m *Matrix, row int, rep *RunReport, mu *sync.Mutex, err error) RowReport {
	m.SettleRow(row, StatusFailed)
	rr := RowReport{Row: row, Kernel: k.Name, Failed: len(configs)}
	mu.Lock()
	rep.add(rr)
	rep.Failures = append(rep.Failures, CellFailure{
		Kernel:   k.Name,
		Config:   configs[0],
		Attempts: 0,
		Err:      fmt.Errorf("prepare failed for whole row (%d cells): %w", len(configs), err),
	})
	mu.Unlock()
	return rr
}

// sweepRow measures one kernel over every configuration, retrying
// faulty cells, merges the row's accounting into the report and
// returns it. trips is the sweep-wide count of opened circuit
// breakers.
//
// Every cell is evaluated through the prepared row's EvalBatch, the
// one evaluation path: one PrepareRow hoists the kernel-invariant
// work, SetBudget hands the row the sweep's context and SimTimeout,
// and one call evaluates the whole config axis up front — or, with
// the circuit breaker armed, one chunk of Breaker cells at a time, so
// a tripped breaker stops engine work after at most Breaker-1 wasted
// cells. The cell loop consumes each cell's first attempt from the
// batch planes; retries re-evaluate a single cell as a one-element
// batch into the same planes (fault injectors roll per (cell,
// attempt), and the batch advanced each cell's counter exactly once,
// so the decision stream continues seamlessly). A call that fails at
// the row level sends each of its cells through its own one-element
// call. The loop itself carries no observer branch: the observer
// hears about the row once it settles, and about each retry.
func sweepRow(ctx context.Context, re gcn.RowEngine, k *kernel.Kernel, configs []hw.Config,
	opts Options, m *Matrix, row int, rep *RunReport, mu *sync.Mutex, trips *atomic.Int64) RowReport {
	prow, err := re.PrepareRow(k)
	if err != nil {
		return failRowPrepare(k, configs, m, row, rep, mu, err)
	}
	prow.SetBudget(ctx, opts.SimTimeout)

	// The planes come from a pool so the batch path allocates nothing
	// per row once warm.
	buf := getBatchBuf(len(configs))
	defer putBatchBuf(buf)
	ev := &cellEval{row: prow, configs: configs, buf: buf}
	// chunk is the width of one EvalBatch call; hi ends the chunk in
	// flight and chunkOK says whether its call succeeded. batched
	// records that every call did.
	chunk := len(configs)
	if opts.Breaker > 0 && opts.Breaker < chunk {
		chunk = opts.Breaker
	}
	hi, chunkOK, batched := 0, false, true

	tput := make([]float64, len(configs))
	times := make([]float64, len(configs))
	bounds := make([]gcn.Bound, len(configs))
	status := make([]CellStatus, len(configs))

	// Per-row noise stream keeps results independent of worker
	// scheduling; one draw per cell (even failed ones) keeps later
	// cells aligned with a fault-free run of the same seed.
	var rng *rand.Rand
	if opts.NoiseStdDev > 0 {
		rng = rand.New(rand.NewSource(opts.Seed + int64(row)))
	}

	rr := RowReport{Row: row, Kernel: k.Name}
	fellBack := 0
	var failures []CellFailure
	// streak counts consecutive failed cells; Options.Breaker of them
	// in a row opens the breaker and quarantines the rest of the row.
	streak, tripped := 0, false
	for c := range configs {
		cfg := &configs[c]
		noise := 1.0
		if rng != nil {
			noise = math.Exp(rng.NormFloat64() * opts.NoiseStdDev)
		}
		if tripped {
			status[c] = StatusQuarantined
			rr.Quarantined++
			continue
		}
		if c == hi {
			lo := c
			hi = min(c+chunk, len(configs))
			chunkOK = ctx.Err() == nil && safeBatch(prow, configs[lo:hi], buf.res[lo:hi], buf.errs[lo:hi]) == nil
			batched = batched && chunkOK
		}
		// Attempt one: the cell's slot of its chunk's batch, or its own
		// one-element call when the chunk's call failed. A batched
		// outcome is kept even if the sweep was canceled since (cells the
		// batch never started carry the context's error); an unbatched
		// cell is not started once the sweep is canceled. Results are
		// read in place from the batch planes — the wide Result struct
		// is never copied per cell.
		if chunkOK {
			if err = buf.errs[c]; err != nil {
				err = panicErr(err)
			}
		} else if ctx.Err() != nil {
			status[c] = StatusCanceled
			rr.Canceled++
			continue
		} else {
			err = ev.eval(c)
		}
		rp := &buf.res[c]
		if err == nil {
			err = validate(rp)
		}
		n := 1
		if err != nil && opts.Retries > 0 {
			n, err = retryCell(ctx, ev, c, err, opts, row, k.Name)
		}
		rr.Attempts += n
		rr.Retries += n - 1
		if !chunkOK || n > 1 {
			fellBack++
		}
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				status[c] = StatusCanceled
				rr.Canceled++
				continue
			}
			status[c] = StatusFailed
			rr.Failed++
			failures = append(failures, CellFailure{Kernel: k.Name, Config: *cfg, Attempts: n, Err: err})
			streak++
			if opts.Breaker > 0 && streak >= opts.Breaker {
				tripped = true
				trips.Add(1)
				if o := opts.Observer; o != nil {
					o.BreakerTripped(row, k.Name, streak)
				}
			}
			continue
		}
		streak = 0
		tput[c] = rp.Throughput * noise
		times[c] = rp.TimeNS
		bounds[c] = rp.Bound
		rr.OK++
	}
	m.Throughput[row] = tput
	m.TimeNS[row] = times
	m.Bound[row] = bounds
	m.Status[row] = status

	s := prow.Stats()
	mu.Lock()
	rep.add(rr)
	if tripped {
		rep.BreakerTrips++
	}
	rep.Failures = append(rep.Failures, failures...)
	rep.Prepared.Rows++
	if batched {
		rep.Prepared.BatchedRows++
	}
	rep.Prepared.BatchFallbackCells += fellBack
	rep.Prepared.ResidentSetHits += s.ResidentSetHits
	rep.Prepared.ResidentSetMisses += s.ResidentSetMisses
	rep.Prepared.HitRateHits += s.HitRateHits
	rep.Prepared.HitRateMisses += s.HitRateMisses
	mu.Unlock()
	return rr
}

// maxBackoff caps a cell's doubling retry backoff.
const maxBackoff = 100 * time.Millisecond

// retryCell retries a cell whose first attempt failed with err, with
// validation and backoff, while it fails retryably; each retry is a
// one-cell EvalBatch through ev, reported to the observer with the
// call's duration and the error it retried. It returns the number of
// attempts and the final error.
func retryCell(ctx context.Context, ev *cellEval, c int, err error, opts Options, row int, name string) (int, error) {
	backoff := opts.Backoff
	o := opts.Observer
	attempt := 1
	// Panics are final: a panicking engine is broken, not flaky. A
	// canceled cell only surfaces once the sweep is being torn down.
	// Retrying either wastes the budget.
	for attempt <= opts.Retries && !errors.Is(err, ErrEnginePanic) &&
		!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		if ctx.Err() != nil {
			return attempt, ctx.Err()
		}
		if backoff > 0 {
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return attempt, ctx.Err()
			}
			backoff *= 2
			if backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
		attempt++
		cause := err
		var start time.Time
		if o != nil {
			start = time.Now()
		}
		if err = ev.eval(c); err == nil {
			err = validate(&ev.buf.res[c])
		}
		if o != nil {
			o.Retry(row, name, ev.configs[c], attempt, time.Since(start), cause)
		}
		if err == nil {
			break
		}
	}
	return attempt, err
}

// cellEval re-evaluates single cells of a prepared row through the
// same EvalBatch seam the whole-row call uses, writing into the row's
// batch planes in place.
type cellEval struct {
	row     gcn.PreparedRow
	configs []hw.Config
	buf     *batchBuf
}

func (e *cellEval) eval(c int) error {
	if err := safeBatch(e.row, e.configs[c:c+1], e.buf.res[c:c+1], e.buf.errs[c:c+1]); err != nil {
		return err
	}
	return panicErr(e.buf.errs[c])
}

// panicErr maps a per-cell panic isolated inside a batch onto the
// sweep's engine-panic classification (final, no retry); other errors,
// and nil, pass through.
func panicErr(err error) error {
	if errors.Is(err, gcn.ErrBatchPanic) {
		return fmt.Errorf("%w: %v", ErrEnginePanic, err)
	}
	return err
}

// safeBatch runs a batch evaluation with panic isolation, so one
// broken kernel model cannot take down a multi-hour campaign. A
// non-nil return (row-level batch failure, or a panic that escaped the
// engine's own per-cell isolation) fails the call as a whole: for the
// whole-row call the caller then evaluates every cell on its own, and
// for a one-cell call it is that cell's error.
func safeBatch(br gcn.BatchRow, cfgs []hw.Config, out []gcn.Result, errs []error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v\n%s", ErrEnginePanic, p, debug.Stack())
		}
	}()
	return br.EvalBatch(cfgs, out, errs)
}

// configsCache memoizes the last materialized config axis. Callers
// (benchmarks, refinement loops, the distributed driver's per-lease
// Runs) invoke Run repeatedly over the same grid, and re-deriving the
// 891-point axis is pure per-run overhead at batched speeds. Axes are
// compared by value — and the cached Space is a deep copy, so a caller
// mutating its own axis slices in place can never alias the cache into
// a stale hit — and the returned slice is shared read-only: nothing
// downstream of resume writes a Config.
var configsCache struct {
	mu      sync.Mutex
	space   hw.Space
	configs []hw.Config
}

func gridConfigs(space hw.Space) []hw.Config {
	configsCache.mu.Lock()
	defer configsCache.mu.Unlock()
	if configsCache.configs != nil && space.Equal(configsCache.space) {
		return configsCache.configs
	}
	cfgs := space.Configs()
	configsCache.space = space.Clone()
	configsCache.configs = cfgs
	return cfgs
}

// batchBuf holds one row's batched evaluation planes. Buffers are
// pooled across rows and sweeps so the batch path allocates nothing
// per row once warm — at ~50ns/cell the round batch would otherwise
// spend a measurable share of its budget on two 891-element makes.
type batchBuf struct {
	res  []gcn.Result
	errs []error
}

var batchPool = sync.Pool{New: func() any { return new(batchBuf) }}

func getBatchBuf(n int) *batchBuf {
	b := batchPool.Get().(*batchBuf)
	if cap(b.res) < n {
		b.res = make([]gcn.Result, n)
		b.errs = make([]error, n)
	}
	b.res = b.res[:n]
	b.errs = b.errs[:n]
	return b
}

func putBatchBuf(b *batchBuf) { batchPool.Put(b) }

// validate rejects measurements no hardware run could produce —
// exactly the garbage a flaky rig emits. Corruption is retryable.
// Positive, finite, non-NaN is spelled as plain comparisons (x > 0
// already excludes NaN and -Inf; x <= MaxFloat64 excludes +Inf) so the
// check inlines into the per-cell loop with no calls.
func validate(r *gcn.Result) error {
	if r.Throughput > 0 && r.Throughput <= math.MaxFloat64 &&
		r.TimeNS > 0 && r.TimeNS <= math.MaxFloat64 {
		return nil
	}
	return corruptErr(r)
}

// corruptErr builds validate's failure, kept out of line so validate
// itself inlines into the per-cell loop.
func corruptErr(r *gcn.Result) error {
	if !(r.Throughput > 0) || math.IsInf(r.Throughput, 0) {
		return fmt.Errorf("%w: throughput %g", ErrCorruptResult, r.Throughput)
	}
	return fmt.Errorf("%w: time %g ns", ErrCorruptResult, r.TimeNS)
}

// Runs returns the total simulations a sweep of this shape performs.
func Runs(kernels, configs int) int { return kernels * configs }
