package sweep

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gpuscale/internal/fault"
	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/suites"
)

// Supervision is cooperative: the engines check the row's budget in
// their event loops, so a canceled or timed-out cell returns on its
// own, supervised rows still evaluate in one batch, and no goroutine
// is ever spawned to watch (or abandoned by) an engine call.

// TestCancelReturnsPromptlyMidRow cancels a default-option sweep half
// way through a row (on a 2-vCPU host the row takes about 0.7 s on the
// wave engine and about 0.1 s on the pipeline engine): RunContext must
// return within a tenth of the row's uncanceled time, with every cell
// it did not evaluate marked canceled. The cancel follows the row's
// measured time, so a faster engine or host does not leave it past the
// row's end; a row under minRow is too short to measure a tenth of.
// The wave row is the corpus's first kernel. A pipeline row costs about
// one resident-set run, whose line answers the rest of the row, and a
// corpus row's run takes about a millisecond, so the pipeline row is
// scicomp-p02.k2_balanced with 300 times the work per wave: the cancel
// lands inside that one long run and tests its budget checks.
func TestCancelReturnsPromptlyMidRow(t *testing.T) {
	corpus := suites.AllKernels(suites.Corpus())
	long := *corpus[30]
	long.VALUPerWave *= 300
	long.SALUPerWave *= 300
	long.LDSOpsPerWave *= 300
	long.Mem.LoadsPerWave *= 300
	long.Mem.StoresPerWave *= 300
	space := hw.StudySpace()
	for _, c := range []struct {
		engine Engine
		kernel *kernel.Kernel
	}{{Wave, corpus[0]}, {Pipeline, &long}} {
		ks := []*kernel.Kernel{c.kernel}
		t.Run(c.engine.String(), func(t *testing.T) {
			start := time.Now()
			_, rep, err := RunContext(context.Background(), ks, space, Options{Engine: c.engine})
			full := time.Since(start)
			if err != nil || !rep.Complete() {
				t.Fatalf("uncanceled row: %v %s", err, rep.Summary())
			}
			const minRow = 20 * time.Millisecond
			if full < minRow {
				t.Fatalf("row %s takes only %v on %s; too short to cancel mid-row", ks[0].Name, full, c.engine)
			}
			after := full / 2

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			canceledAt := make(chan time.Time, 1)
			time.AfterFunc(after, func() {
				now := time.Now()
				cancel()
				canceledAt <- now
			})
			m, rep, err := RunContext(ctx, ks, space, Options{Engine: c.engine})
			returned := time.Now()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if lag := returned.Sub(<-canceledAt); lag > full/10 {
				t.Fatalf("RunContext returned %v after cancel; the uncanceled row takes %v", lag, full)
			}
			checkAccounting(t, rep)
			if rep.Canceled == 0 || rep.Failed != 0 {
				t.Fatalf("want canceled cells and no failures: %s", rep.Summary())
			}
			for i, s := range m.Status[0] {
				if s != StatusOK && s != StatusCanceled {
					t.Fatalf("cell %d has status %s, want ok or canceled", i, s)
				}
			}
		})
	}
}

// goroutineProbe wraps a row engine and records the largest goroutine
// count seen from inside any EvalBatch call.
type goroutineProbe struct {
	re  gcn.RowEngine
	max atomic.Int64
}

type goroutineProbeRow struct {
	gcn.PreparedRow
	p *goroutineProbe
}

func (p *goroutineProbe) PrepareRow(k *kernel.Kernel) (gcn.PreparedRow, error) {
	pr, err := p.re.PrepareRow(k)
	if err != nil {
		return nil, err
	}
	return goroutineProbeRow{pr, p}, nil
}

func (r goroutineProbeRow) EvalBatch(cfgs []hw.Config, out []gcn.Result, errs []error) error {
	n := int64(runtime.NumGoroutine())
	for {
		cur := r.p.max.Load()
		if n <= cur || r.p.max.CompareAndSwap(cur, n) {
			break
		}
	}
	return r.PreparedRow.EvalBatch(cfgs, out, errs)
}

// TestSupervisedSweepBatches: with a (generous) SimTimeout every row
// still evaluates in one batch, the matrix is byte-identical to the
// unsupervised sweep, and the sweep runs on its worker pool alone.
func TestSupervisedSweepBatches(t *testing.T) {
	space := testSpace(t)
	for _, e := range []Engine{Round, Detailed, Wave, Pipeline} {
		ks := testKernels()
		if e != Round {
			ks = lightKernels()
		}
		if e == Pipeline {
			ks = ks[:2]
		}
		t.Run(e.String(), func(t *testing.T) {
			plain, _, err := RunContext(context.Background(), ks, space, Options{Engine: e})
			if err != nil {
				t.Fatal(err)
			}
			const workers = 2
			probe := &goroutineProbe{re: e.Row()}
			before := runtime.NumGoroutine()
			supervised, rep, err := RunContext(context.Background(), ks, space,
				Options{Row: probe, SimTimeout: time.Minute, Workers: workers})
			if err != nil || !rep.Complete() {
				t.Fatalf("supervised sweep: %v %s", err, rep.Summary())
			}
			if rep.Prepared.BatchedRows != len(ks) {
				t.Fatalf("batched rows = %d, want %d", rep.Prepared.BatchedRows, len(ks))
			}
			if !bytes.Equal(csvBytes(t, plain), csvBytes(t, supervised)) {
				t.Fatal("supervised matrix differs from the unsupervised one")
			}
			if got := probe.max.Load(); got > int64(before+workers) {
				t.Fatalf("%d goroutines during the sweep, want at most %d before + %d workers", got, before, workers)
			}
		})
	}
}

// cellCounter wraps a row engine and counts the cells it is asked to
// evaluate.
type cellCounter struct {
	re    gcn.RowEngine
	cells atomic.Int64
}

type cellCounterRow struct {
	gcn.PreparedRow
	c *cellCounter
}

func (c *cellCounter) PrepareRow(k *kernel.Kernel) (gcn.PreparedRow, error) {
	pr, err := c.re.PrepareRow(k)
	if err != nil {
		return nil, err
	}
	return cellCounterRow{pr, c}, nil
}

func (r cellCounterRow) EvalBatch(cfgs []hw.Config, out []gcn.Result, errs []error) error {
	r.c.cells.Add(int64(len(cfgs)))
	return r.PreparedRow.EvalBatch(cfgs, out, errs)
}

// TestBreakerStopsSupervisedRow: in a supervised row whose every cell
// times out, the tripped breaker stops engine work, so the row costs
// Breaker timeouts rather than one per cell.
func TestBreakerStopsSupervisedRow(t *testing.T) {
	space := testSpace(t)
	const breaker, timeout = 3, 20 * time.Millisecond
	stall := fault.Injector{StallRate: 1, Stall: time.Hour, Seed: 1}
	count := &cellCounter{re: stall.WrapRow(gcn.RoundRow)}
	start := time.Now()
	_, rep, err := RunContext(context.Background(), testKernels()[:1], space,
		Options{Row: count, SimTimeout: timeout, Breaker: breaker})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, rep)
	if rep.Failed != breaker || rep.Quarantined != space.Size()-breaker || rep.BreakerTrips != 1 {
		t.Fatalf("want %d timeouts, then the rest quarantined: %s", breaker, rep.Summary())
	}
	for _, f := range rep.Failures {
		if !errors.Is(f.Err, ErrSimTimeout) {
			t.Fatalf("failure not a timeout: %v", f.Err)
		}
	}
	if got := count.cells.Load(); got != breaker {
		t.Fatalf("engine asked for %d cells, want only the %d that tripped the breaker", got, breaker)
	}
	if limit := time.Duration(space.Size()) * timeout / 2; elapsed >= limit {
		t.Fatalf("row took %v: the quarantined cells were served their timeouts too", elapsed)
	}
}

// cancelOnBatch wraps a row engine and cancels the sweep as each batch
// starts, so the rows beneath it see a context that has already ended.
type cancelOnBatch struct {
	re     gcn.RowEngine
	cancel context.CancelFunc
}

type cancelOnBatchRow struct {
	gcn.PreparedRow
	cancel context.CancelFunc
}

func (c *cancelOnBatch) PrepareRow(k *kernel.Kernel) (gcn.PreparedRow, error) {
	pr, err := c.re.PrepareRow(k)
	if err != nil {
		return nil, err
	}
	return cancelOnBatchRow{pr, c.cancel}, nil
}

func (r cancelOnBatchRow) EvalBatch(cfgs []hw.Config, out []gcn.Result, errs []error) error {
	r.cancel()
	return r.PreparedRow.EvalBatch(cfgs, out, errs)
}

// TestCanceledCellsEscapeFaultOverlay: cells the engine never started
// because the sweep was canceled are canceled, not failed, even when
// the injector would fail or panic every attempt.
func TestCanceledCellsEscapeFaultOverlay(t *testing.T) {
	space := testSpace(t)
	for _, in := range []fault.Injector{{ErrorRate: 1, Seed: 1}, {PanicRate: 1, Seed: 1}} {
		ctx, cancel := context.WithCancel(context.Background())
		row := in.WrapRow(&cancelOnBatch{re: gcn.WaveRow, cancel: cancel})
		_, rep, err := RunContext(ctx, lightKernels()[:1], space, Options{Row: row})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		checkAccounting(t, rep)
		if rep.Failed != 0 || rep.Canceled != space.Size() {
			t.Fatalf("want every cell canceled and none failed: %s", rep.Summary())
		}
	}
}
