// Package fault provides a deterministic, seed-driven fault injector
// for simulator engines — the test rig that stands in for the flaky
// hardware runs a weeks-long measurement campaign has to survive.
//
// An Injector wraps any gcn.RowEngine (WrapRow) and, per cell
// evaluation, may inject a transient error, corrupt the result (NaN,
// negative or infinite throughput — the "garbage readings" failure
// mode), stall the cell for a configurable duration (the "hung run"
// failure mode), delay it by a seeded variable latency (the "slow rig"
// failure mode overload tests lean on), or fail it as an engine panic
// (the "driver crash" failure mode the executor must settle). Every
// decision is a pure function of
// (kernel, configuration, attempt number, seed), so a faulty sweep is
// reproducible regardless of worker count or scheduling, and a retry
// of the same cell sees an independent roll — exactly how re-running
// a flaky benchmark behaves.
//
// Beyond the engine, WrapWriter injects torn writes into any
// io.Writer — the journal's power-loss failure mode — cutting a write
// short after a deterministic prefix and returning ErrTornWrite, and
// WrapTransport injects network-shaped faults into any
// http.RoundTripper — dropped responses (the request was delivered,
// the reply was lost), duplicated deliveries, delayed requests, and
// seeded partition windows (symmetric or one-way) — the failure modes
// a distributed lease protocol must absorb without double-completing
// work and a failover protocol must absorb without electing two
// primaries.
package fault

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
)

// ErrInjected is the transient error an Injector returns; retryable by
// construction. Wrapped errors carry the cell and attempt for
// diagnostics, so match with errors.Is.
var ErrInjected = errors.New("fault: injected transient error")

// ErrTornWrite is returned by a WrapWriter writer when an injected
// torn write fires: part of the buffer reached the underlying writer,
// the rest was dropped, emulating power loss mid-append.
var ErrTornWrite = errors.New("fault: injected torn write")

// ErrDroppedResponse is returned by a WrapTransport round trip when a
// dropped-response fault fires: the request WAS delivered and its
// side effects applied, but the reply never reached the client — the
// network failure mode that turns naive retries into duplicates.
var ErrDroppedResponse = errors.New("fault: injected dropped response")

// ErrPartitioned is returned by a WrapTransport round trip while an
// injected network partition window is open. A symmetric partition
// fails the round trip outright (the request never arrived); a
// one-way partition delivers the request — its server-side effects
// apply — and loses the reply, like ErrDroppedResponse but sustained
// over a window, which is the shape that tests failover promotion
// races.
var ErrPartitioned = errors.New("fault: injected network partition")

// ErrWriteFail is returned by a WrapWriter writer when an injected
// write error fires: a deterministic prefix of the buffer reached the
// underlying writer and then the device "filled up" — the ENOSPC
// failure mode, which unlike a torn write reports the error to the
// writer in-process, so the append path's self-healing truncation
// (not just reopen-time salvage) is on trial.
var ErrWriteFail = errors.New("fault: injected write error (device full)")

// Injector describes a fault model. The zero value injects nothing and
// wraps an engine into itself. Rates are probabilities in [0,1]
// evaluated in order: error, then corruption, then stall — at most one
// fault fires per invocation.
type Injector struct {
	// ErrorRate is the probability an invocation fails with a
	// transient error wrapping ErrInjected.
	ErrorRate float64
	// CorruptRate is the probability an invocation succeeds but
	// returns a corrupted Result (NaN, negative or +Inf throughput,
	// rotating deterministically per cell).
	CorruptRate float64
	// StallRate is the probability an invocation is held for Stall —
	// emulates a hung run that a per-cell timeout must reap. The stall
	// is cooperative: it ends early, failing the cell, when the row's
	// budget (gcn.PreparedRow.SetBudget) expires or is canceled.
	StallRate float64
	// PanicRate is the probability an invocation fails as an engine
	// panic (an error wrapping gcn.ErrBatchPanic) — emulates an
	// engine/driver crash that the executor must settle as a final
	// CellFailure.
	PanicRate float64
	// LatencyRate is the probability an invocation is delayed by a
	// deterministic, seeded amount of added latency —
	// emulates slow runs (thermal throttling, contended rigs) without
	// real slow engines, so overload tests stay fast and reproducible.
	// Unlike a stall, the delay varies per call: each fired decision
	// picks a duration in (0, Latency] as a pure function of the cell,
	// attempt and seed.
	LatencyRate float64
	// TornWriteRate is the probability a WrapWriter write is cut
	// short: a deterministic prefix reaches the underlying writer and
	// the call returns ErrTornWrite. Independent of the engine-side
	// rates; it never fires through WrapRow.
	TornWriteRate float64
	// WriteErrRate is the probability a WrapWriter write fails with
	// ErrWriteFail after a deterministic prefix landed — the ENOSPC /
	// failing-disk model. It shares the torn-write roll stream, so
	// TornWriteRate + WriteErrRate must not exceed 1.
	WriteErrRate float64
	// CorruptRowRate is the probability RowTamper tells a byzantine
	// worker to corrupt one completed row before rendering and
	// shipping it — the lying-fleet-member model distributed
	// attestation exists to catch. The tampered values stay plausible
	// (positive, finite), so only digest comparison against an honest
	// re-execution can expose them. Never fires through WrapRow,
	// WrapWriter or WrapTransport.
	CorruptRowRate float64
	// StaleVersion, when non-empty, is the protocol version string a
	// byzantine worker advertises instead of its real one — the
	// mixed-version fleet the coordinator's handshake must fence
	// before a single cell is computed.
	StaleVersion string
	// DropResponseRate is the probability a WrapTransport round trip
	// delivers the request but loses the response: the server applies
	// the request's effects, the client sees ErrDroppedResponse and
	// (typically) retries — the exactly-once drill for idempotent
	// protocols. Independent of the engine-side rates.
	DropResponseRate float64
	// DuplicateRate is the probability a WrapTransport round trip
	// delivers the request twice (the network replayed it); the client
	// sees the second response. The server must treat the first
	// delivery's effects as already applied.
	DuplicateRate float64
	// DelayRate is the probability a WrapTransport round trip is held
	// back by a seeded delay in (0, Delay] before delivery — late
	// lease renewals and slow completes, the stragglers a
	// work-stealing coordinator exists to absorb.
	DelayRate float64
	// PartitionRate is the probability a WrapTransport round trip
	// opens a network-partition window: for the next PartitionFor,
	// every round trip through this transport fails with
	// ErrPartitioned. Whether the window is symmetric (requests never
	// delivered) or one-way (requests delivered, replies lost) is the
	// window roll's sub-decision — both directions of a real partition,
	// deterministically. Rolls its own seeded stream
	// ("partition-stream"), independent of the per-trip network rates.
	PartitionRate float64
	// PartitionFor is the partition window length; defaults to 250ms
	// when PartitionRate is set but PartitionFor is zero.
	PartitionFor time.Duration
	// Stall is the artificial delay applied when a stall fires;
	// defaults to 10ms when a StallRate is set but Stall is zero.
	Stall time.Duration
	// Latency is the maximum added delay when a latency fault fires;
	// defaults to 5ms when a LatencyRate is set but Latency is zero.
	Latency time.Duration
	// Delay is the maximum added network delay when a delay fault
	// fires; defaults to 5ms when a DelayRate is set but Delay is
	// zero.
	Delay time.Duration
	// Seed decorrelates the fault stream; different seeds give
	// different fault patterns, equal seeds identical ones.
	Seed int64
	// OnDecision, when non-nil, is invoked for every fault the
	// injector fires (never for clean invocations), from whichever
	// goroutine runs the simulation — it must be safe for concurrent
	// use and must not block. Observability layers hang counters and
	// trace annotations here; see Observe.
	OnDecision func(Decision)
}

// Kind names the fault a decision injected.
type Kind uint8

const (
	// KindError is a transient error wrapping ErrInjected.
	KindError Kind = iota
	// KindCorrupt is a corrupted (NaN/negative/Inf) result.
	KindCorrupt
	// KindStall is an artificial delay.
	KindStall
	// KindPanic is an injected engine panic.
	KindPanic
	// KindTornWrite is an injected short write through WrapWriter.
	KindTornWrite
	// KindLatency is an injected seeded delay.
	KindLatency
	// KindDropResponse is a delivered request whose response was lost
	// (WrapTransport).
	KindDropResponse
	// KindDuplicate is a request delivered twice (WrapTransport).
	KindDuplicate
	// KindDelay is a seeded network delay before delivery
	// (WrapTransport).
	KindDelay
	// KindWriteErr is an injected write failure (ENOSPC model) through
	// WrapWriter.
	KindWriteErr
	// KindCorruptRow is a RowTamper decision to corrupt a completed
	// row's planes before its record is rendered, attested and
	// shipped.
	KindCorruptRow
	// KindPartition is a WrapTransport decision to open a network
	// partition window (symmetric or one-way).
	KindPartition
)

var kindNames = [...]string{"error", "corrupt", "stall", "panic", "torn-write", "latency",
	"drop-response", "duplicate", "delay", "write-error", "corrupt-row", "partition"}

// String returns the kind's lower-case name.
func (k Kind) String() string {
	if int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Decision records one fired fault: which cell, which attempt, what
// was injected. Corrupt decisions fire at roll time even if the
// wrapped engine then fails on its own — the decision is the
// injector's, the outcome the engine's.
type Decision struct {
	// Kernel and Config identify the cell. Torn-write and network
	// decisions have no cell: Kernel is empty and Config zero.
	Kernel string
	Config hw.Config
	// Attempt is the cell's 0-based invocation counter — or, for
	// torn-write and network decisions, the writer's/transport's
	// 0-based sequence number.
	Attempt uint64
	// Kind is the injected fault.
	Kind Kind
}

// Validate checks the rates are sane probabilities.
func (in Injector) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"ErrorRate", in.ErrorRate}, {"CorruptRate", in.CorruptRate}, {"StallRate", in.StallRate},
		{"PanicRate", in.PanicRate}, {"LatencyRate", in.LatencyRate}, {"TornWriteRate", in.TornWriteRate},
		{"WriteErrRate", in.WriteErrRate}, {"CorruptRowRate", in.CorruptRowRate},
		{"DropResponseRate", in.DropResponseRate}, {"DuplicateRate", in.DuplicateRate},
		{"DelayRate", in.DelayRate}, {"PartitionRate", in.PartitionRate}} {
		if r.v < 0 || r.v > 1 || math.IsNaN(r.v) {
			return fmt.Errorf("fault: %s %g outside [0,1]", r.name, r.v)
		}
	}
	// Engine-side kinds share one roll; the torn-write stream is
	// independent and only bounded by [0,1] above.
	if sum := in.ErrorRate + in.CorruptRate + in.StallRate + in.PanicRate + in.LatencyRate; sum > 1 {
		return fmt.Errorf("fault: engine rates sum to %g > 1", sum)
	}
	// Writer kinds share one roll per write.
	if sum := in.TornWriteRate + in.WriteErrRate; sum > 1 {
		return fmt.Errorf("fault: writer rates sum to %g > 1", sum)
	}
	// Network kinds share one roll per round trip.
	if sum := in.DropResponseRate + in.DuplicateRate + in.DelayRate; sum > 1 {
		return fmt.Errorf("fault: network rates sum to %g > 1", sum)
	}
	return nil
}

// Active reports whether the injector can fire through WrapRow at all.
// TornWriteRate does not count: it fires through WrapWriter, not the
// engine path.
func (in Injector) Active() bool {
	return in.ErrorRate > 0 || in.CorruptRate > 0 || in.StallRate > 0 || in.PanicRate > 0 || in.LatencyRate > 0
}

// WrapRow returns a row engine that runs re under this fault model.
// Each batch the returned rows evaluate runs through re first; then
// the injector rolls one decision per cell, in config order, and
// overlays it on the cell's outcome. Decisions are a pure function of
// (kernel, configuration, attempt, seed), and one attempt counter per
// cell is shared across every row the returned engine prepares, so a
// retry — a one-cell batch — continues its cell's stream wherever it
// runs. PrepareRow itself never faults: the model covers engine
// invocations, not kernel analysis.
func (in Injector) WrapRow(re gcn.RowEngine) gcn.RowEngine {
	if !in.Active() {
		return re
	}
	e := &faultRowEngine{in: in, re: re, stall: in.Stall, latency: in.Latency}
	if e.stall <= 0 {
		e.stall = 10 * time.Millisecond
	}
	if e.latency <= 0 {
		e.latency = 5 * time.Millisecond
	}
	return e
}

// faultRowEngine wraps a RowEngine with the decision state its rows
// share: the model, the resolved stall and latency durations, and the
// cross-cell attempt counters. Retries of one cell are sequential
// within a sweep worker, but the counters stay safe for arbitrary
// concurrent callers.
type faultRowEngine struct {
	in       Injector
	re       gcn.RowEngine
	stall    time.Duration
	latency  time.Duration
	attempts sync.Map // cell key -> *atomic.Uint64
}

func (e *faultRowEngine) PrepareRow(k *kernel.Kernel) (gcn.PreparedRow, error) {
	pr, err := e.re.PrepareRow(k)
	if err != nil {
		return nil, err
	}
	return &faultRow{PreparedRow: pr, e: e, name: k.Name, ctx: context.Background()}, nil
}

// faultRow overlays the fault model on every batch of the prepared row
// it embeds; Stats passes through. It keeps the row's budget so that
// stalls and latency faults end when the budget does.
type faultRow struct {
	gcn.PreparedRow
	e       *faultRowEngine
	name    string
	ctx     context.Context
	perCell time.Duration
}

func (f *faultRow) SetBudget(ctx context.Context, perCell time.Duration) {
	f.ctx, f.perCell = ctx, perCell
	f.PreparedRow.SetBudget(ctx, perCell)
}

// EvalBatch implements gcn.BatchRow under the fault model: the
// underlying row evaluates every cell once, then each cell's rolled
// decision is overlaid on its outcome. A cell the sweep's cancellation
// stopped was no attempt: it rolls nothing and stays canceled.
func (f *faultRow) EvalBatch(cfgs []hw.Config, out []gcn.Result, errs []error) error {
	if err := f.PreparedRow.EvalBatch(cfgs, out, errs); err != nil {
		return err
	}
	for i := range cfgs {
		if !errors.Is(errs[i], context.Canceled) && !errors.Is(errs[i], context.DeadlineExceeded) {
			f.overlay(cfgs[i], &out[i], &errs[i])
		}
	}
	return nil
}

// overlay rolls one fault decision for the cell's next attempt and
// applies it to the already-computed outcome. An injected panic cannot
// unwind the stack without losing the rest of the batch, so it
// surfaces as an error wrapping gcn.ErrBatchPanic, which the sweep
// settles as a final engine panic.
func (f *faultRow) overlay(cfg hw.Config, r *gcn.Result, cellErr *error) {
	e := f.e
	key := cellKey(f.name, cfg)
	v, _ := e.attempts.LoadOrStore(key, new(atomic.Uint64))
	attempt := v.(*atomic.Uint64).Add(1) - 1
	in := e.in
	roll, sub := in.roll(f.name, cfg, attempt)
	var err error
	switch {
	case roll < in.ErrorRate:
		in.decided(f.name, cfg, attempt, KindError)
		// The caller (CellFailure) already names the cell; only the
		// attempt number is new information here.
		err = fmt.Errorf("attempt %d: %w", attempt, ErrInjected)
	case roll < in.ErrorRate+in.CorruptRate:
		in.decided(f.name, cfg, attempt, KindCorrupt)
		// Corruption only lands on a result the engine actually
		// produced; an engine-side failure passes through.
		if *cellErr == nil {
			*r = corrupt(*r, sub)
		}
	case roll < in.ErrorRate+in.CorruptRate+in.StallRate:
		in.decided(f.name, cfg, attempt, KindStall)
		err = f.hold(e.stall)
	case roll < in.ErrorRate+in.CorruptRate+in.StallRate+in.PanicRate:
		in.decided(f.name, cfg, attempt, KindPanic)
		err = fmt.Errorf("%w: fault: injected engine panic (%s attempt %d)", gcn.ErrBatchPanic, key, attempt)
	case roll < in.ErrorRate+in.CorruptRate+in.StallRate+in.PanicRate+in.LatencyRate:
		in.decided(f.name, cfg, attempt, KindLatency)
		// The delay is a pure function of the same roll that fired the
		// fault: (0, Latency] in 1% steps, reproducible per cell/attempt.
		err = f.hold(e.latency * time.Duration(1+sub%100) / 100)
	}
	if err != nil {
		*r, *cellErr = gcn.Result{}, err
	}
}

// hold delays the cell by d unless the row's budget ends first: a
// per-cell limit shorter than d fails the cell with gcn.ErrSimTimeout
// once it passes, and a canceled sweep fails it with the context's
// error at once. It waits on a timer; no goroutine outlives the call.
func (f *faultRow) hold(d time.Duration) error {
	timeout := f.perCell > 0 && f.perCell < d
	if timeout {
		d = f.perCell
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		if timeout {
			return fmt.Errorf("%w after %v", gcn.ErrSimTimeout, f.perCell)
		}
		return nil
	case <-f.ctx.Done():
		return f.ctx.Err()
	}
}

// WrapWriter returns a writer that injects torn writes into w at
// TornWriteRate and write errors (the ENOSPC model) at WriteErrRate.
// When a tear fires, a deterministic prefix of the buffer (possibly
// empty) is written through and the call returns ErrTornWrite — the
// caller sees the same partial-append state a power loss would leave
// on disk. When a write error fires, the same deterministic prefix
// lands and the call returns ErrWriteFail — the disk filled up
// mid-record, and the partial bytes are the caller's to clean up.
// Decisions are a pure function of (seed, write sequence), so a given
// writer faults at the same writes every run. The returned writer is
// safe for concurrent use; with both rates zero, w is returned
// unchanged.
func (in Injector) WrapWriter(w io.Writer) io.Writer {
	if in.TornWriteRate <= 0 && in.WriteErrRate <= 0 {
		return w
	}
	return &tornWriter{in: in, w: w}
}

// tornWriter is the WrapWriter implementation: a write-sequence
// counter drives the same splitmix-finished roll the engine path
// uses, under a distinct stream label so engine and writer faults
// stay decorrelated. Torn writes and write errors share the roll:
// at most one fires per write.
type tornWriter struct {
	in  Injector
	mu  sync.Mutex
	w   io.Writer
	seq uint64
}

func (t *tornWriter) Write(b []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	seq := t.seq
	t.seq++
	roll, sub := t.in.roll("torn-write-stream", hw.Config{}, seq)
	if roll >= t.in.TornWriteRate+t.in.WriteErrRate || len(b) == 0 {
		return t.w.Write(b)
	}
	kind, failure := KindTornWrite, ErrTornWrite
	if roll >= t.in.TornWriteRate {
		kind, failure = KindWriteErr, ErrWriteFail
	}
	t.in.decided("", hw.Config{}, seq, kind)
	n, err := t.w.Write(b[:int(sub)%len(b)])
	if err != nil {
		return n, err
	}
	return n, failure
}

// RowTamper rolls a byzantine row-corruption decision for one
// completed row: key identifies the row (job plus kernel is the
// natural choice), seq distinguishes repeat executions. It returns
// whether the caller should tamper with the row before rendering and
// shipping it, plus a sub-roll to pick the corruption shape. The
// decision is a pure function of (key, seq, seed) under its own
// stream label, so a lying worker lies about the same rows on every
// replay — which is what makes a byzantine soak reproducible from its
// seed.
func (in Injector) RowTamper(key string, seq uint64) (bool, uint64) {
	if in.CorruptRowRate <= 0 {
		return false, 0
	}
	roll, sub := in.roll("byzantine-row-stream|"+key, hw.Config{}, seq)
	if roll >= in.CorruptRowRate {
		return false, 0
	}
	in.decided(key, hw.Config{}, seq, KindCorruptRow)
	return true, sub
}

// NetworkActive reports whether the injector can fire through
// WrapTransport at all. Like TornWriteRate, the network rates are
// independent of the engine path and never fire through Wrap.
func (in Injector) NetworkActive() bool {
	return in.DropResponseRate > 0 || in.DuplicateRate > 0 || in.DelayRate > 0 || in.PartitionRate > 0
}

// WrapTransport returns a round tripper that injects network-shaped
// faults into rt: dropped responses (request delivered, reply lost,
// the call returns ErrDroppedResponse), duplicated deliveries (the
// request reaches the server twice; the caller sees the second
// response), and seeded delays in (0, Delay] before delivery.
// Decisions are a pure function of (seed, round-trip sequence) under a
// distinct stream label, so a given transport faults at the same
// round trips every run. At most one fault fires per round trip. The
// returned transport is safe for concurrent use; when no network rate
// is set, rt is returned unchanged. A nil rt means
// http.DefaultTransport.
func (in Injector) WrapTransport(rt http.RoundTripper) http.RoundTripper {
	if !in.NetworkActive() {
		if rt == nil {
			return http.DefaultTransport
		}
		return rt
	}
	if rt == nil {
		rt = http.DefaultTransport
	}
	delay := in.Delay
	if delay <= 0 {
		delay = 5 * time.Millisecond
	}
	return &netTransport{in: in, rt: rt, delay: delay}
}

// netTransport is the WrapTransport implementation: a round-trip
// sequence counter drives the same splitmix-finished roll the engine
// path uses, under the "net-stream" label so network faults stay
// decorrelated from engine and writer faults.
type netTransport struct {
	in    Injector
	rt    http.RoundTripper
	delay time.Duration
	mu    sync.Mutex
	seq   uint64
	// Partition window state: partSeq numbers the window rolls (its
	// own stream, so adding PartitionRate never shifts the per-trip
	// fault pattern), partUntil is when the open window closes,
	// partOneWay its direction.
	partSeq    uint64
	partUntil  time.Time
	partOneWay bool
}

func (t *netTransport) next() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.seq
	t.seq++
	return n
}

// partitionState reports whether a partition window is open for this
// round trip, opening a new one when its roll fires.
func (t *netTransport) partitionState() (open, oneWay bool) {
	if t.in.PartitionRate <= 0 {
		return false, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	if now.Before(t.partUntil) {
		return true, t.partOneWay
	}
	seq := t.partSeq
	t.partSeq++
	roll, sub := t.in.roll("partition-stream", hw.Config{}, seq)
	if roll >= t.in.PartitionRate {
		return false, false
	}
	dur := t.in.PartitionFor
	if dur <= 0 {
		dur = 250 * time.Millisecond
	}
	t.partUntil = now.Add(dur)
	t.partOneWay = sub&1 == 1
	t.in.decided("", hw.Config{}, seq, KindPartition)
	return true, t.partOneWay
}

func (t *netTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if open, oneWay := t.partitionState(); open {
		if !oneWay {
			// Symmetric: the request never crosses; no server-side
			// effects.
			return nil, fmt.Errorf("%w (symmetric)", ErrPartitioned)
		}
		// One-way: deliver for real — the server applies the effects —
		// then lose the reply, sustained for the window.
		resp, err := t.rt.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("%w (one-way)", ErrPartitioned)
	}
	seq := t.next()
	in := t.in
	roll, sub := in.roll("net-stream", hw.Config{}, seq)
	switch {
	case roll < in.DropResponseRate:
		// Deliver the request for real — its server-side effects must
		// apply — then lose the reply. A transport-level failure on the
		// delivery itself surfaces as-is: nothing was applied, so the
		// drop would prove nothing.
		resp, err := t.rt.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		in.decided("", hw.Config{}, seq, KindDropResponse)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, ErrDroppedResponse
	case roll < in.DropResponseRate+in.DuplicateRate:
		in.decided("", hw.Config{}, seq, KindDuplicate)
		return t.duplicate(req)
	case roll < in.DropResponseRate+in.DuplicateRate+in.DelayRate:
		in.decided("", hw.Config{}, seq, KindDelay)
		// Same (0, max] in 1% steps as the engine latency fault.
		timer := time.NewTimer(t.delay * time.Duration(1+sub%100) / 100)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		}
	}
	return t.rt.RoundTrip(req)
}

// duplicate delivers req twice and returns the second response — the
// network replayed the request; the server must treat the first
// delivery's effects as already applied. The body is buffered so both
// deliveries carry it. A failed first delivery is ignored (the replay
// still goes out, as a real network would).
func (t *netTransport) duplicate(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil {
		b, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("fault: buffering request body for duplicate: %w", err)
		}
		body = b
	}
	send := func() (*http.Response, error) {
		r := req.Clone(req.Context())
		if body != nil {
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.ContentLength = int64(len(body))
			r.GetBody = func() (io.ReadCloser, error) {
				return io.NopCloser(bytes.NewReader(body)), nil
			}
		}
		return t.rt.RoundTrip(r)
	}
	if first, err := send(); err == nil {
		io.Copy(io.Discard, first.Body)
		first.Body.Close()
	}
	return send()
}

// decided reports one fired fault to the OnDecision hook, if any.
func (in Injector) decided(name string, cfg hw.Config, attempt uint64, kind Kind) {
	if in.OnDecision != nil {
		in.OnDecision(Decision{Kernel: name, Config: cfg, Attempt: attempt, Kind: kind})
	}
}

// cellKey identifies one (kernel, configuration) cell.
func cellKey(name string, cfg hw.Config) string {
	return fmt.Sprintf("%s|%d|%g|%g", name, cfg.CUs, cfg.CoreClockMHz, cfg.MemClockMHz)
}

// roll derives the uniform fault roll for one invocation plus a small
// sub-roll used to pick the corruption mode. FNV-1a over the cell
// identity, seed, and attempt keeps the stream deterministic and
// independent of scheduling.
func (in Injector) roll(name string, cfg hw.Config, attempt uint64) (float64, uint64) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%g|%g|%d|%d", name, cfg.CUs, cfg.CoreClockMHz, cfg.MemClockMHz, in.Seed, attempt)
	s := h.Sum64()
	// splitmix64 finisher: FNV output over similar inputs is not
	// uniform enough on its own for rate thresholds.
	s ^= s >> 30
	s *= 0xbf58476d1ce4e5b9
	s ^= s >> 27
	s *= 0x94d049bb133111eb
	s ^= s >> 31
	return float64(s>>11) / (1 << 53), s & 0xff
}

// corrupt damages a good result in one of three deterministic ways.
func corrupt(r gcn.Result, sub uint64) gcn.Result {
	switch sub % 3 {
	case 0:
		r.Throughput = math.NaN()
	case 1:
		r.Throughput = -r.Throughput
	default:
		r.Throughput = math.Inf(1)
	}
	return r
}
