package sweep

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"gpuscale/internal/fault"
	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
)

// The batched config-axis path must be invisible in the data: a sweep
// whose rows evaluate through one EvalBatch call has to produce
// matrices and accounting byte-identical to evaluating every cell on
// its own — as one-element batches when the whole-row call is
// unavailable, and through the per-cell gcn.Simulate* reference — with
// or without fault injection, and its instruments have to say how much
// work actually batched.

func TestBatchPathMatchesDisabledBatchAllEngines(t *testing.T) {
	space := testSpace(t)
	for _, e := range []Engine{Round, Wave, Pipeline, Detailed} {
		ks := testKernels()
		if e == Wave || e == Pipeline || e == Detailed {
			ks = lightKernels()
		}
		if e == Pipeline {
			ks = ks[:2]
		}
		t.Run(e.String(), func(t *testing.T) {
			batch, brep, err := RunContext(context.Background(), ks, space, Options{Engine: e})
			if err != nil {
				t.Fatal(err)
			}
			// With the whole-row call disabled every cell runs as its own
			// one-element batch.
			scalar, srep, err := RunContext(context.Background(), ks, space,
				Options{Row: rowLevelBatchFail{e.Row()}})
			if err != nil {
				t.Fatal(err)
			}
			ref, _, err := RunContext(context.Background(), ks, space, Options{Row: simulateFunc(e)})
			if err != nil {
				t.Fatal(err)
			}
			if a, b := csvBytes(t, batch), csvBytes(t, scalar); !bytes.Equal(a, b) {
				t.Fatalf("engine %s: batched matrix differs from per-cell prepared matrix", e)
			}
			if a, b := csvBytes(t, batch), csvBytes(t, ref); !bytes.Equal(a, b) {
				t.Fatalf("engine %s: batched matrix differs from the per-cell Simulate reference", e)
			}
			if brep.Prepared.BatchedRows != len(ks) {
				t.Fatalf("batched rows = %d, want %d (%+v)", brep.Prepared.BatchedRows, len(ks), brep.Prepared)
			}
			if brep.Prepared.BatchFallbackCells != 0 {
				t.Fatalf("fault-free batch reported %d fallback cells", brep.Prepared.BatchFallbackCells)
			}
			if srep.Prepared.BatchedRows != 0 || srep.Prepared.BatchFallbackCells != srep.Cells {
				t.Fatalf("disabled batch still batched: %+v", srep.Prepared)
			}
			if brep.OK != srep.OK || brep.Attempts != srep.Attempts {
				t.Fatalf("accounting diverged: batch %+v vs scalar %+v", brep, srep)
			}
		})
	}
}

// TestBatchPathFaultEquivalence storms the batch path with every
// engine-side fault kind — including injected panics mid-batch — and
// requires byte-identical matrices and identical retry accounting
// against both one-element batches on the prepared row and the
// per-cell Simulate reference. This is what proves the fault overlay
// advances the same per-(cell, attempt) decision stream however the
// cells are grouped into calls.
func TestBatchPathFaultEquivalence(t *testing.T) {
	space := testSpace(t)
	model := fault.Injector{ErrorRate: 0.15, CorruptRate: 0.1, PanicRate: 0.04, LatencyRate: 0.02,
		Latency: 1, Seed: 11}
	base := Options{Retries: 2}

	batchOpts := base
	batchOpts.Row = model.WrapRow(Round.Row())
	batch, batchRep, err := RunContext(context.Background(), testKernels(), space, batchOpts)
	if err != nil {
		t.Fatal(err)
	}

	scalarOpts := base
	scalarOpts.Row = rowLevelBatchFail{model.WrapRow(Round.Row())}
	scalar, scalarRep, err := RunContext(context.Background(), testKernels(), space, scalarOpts)
	if err != nil {
		t.Fatal(err)
	}

	perOpts := base
	perOpts.Row = model.WrapRow(simulateFunc(Round))
	perCell, perRep, err := RunContext(context.Background(), testKernels(), space, perOpts)
	if err != nil {
		t.Fatal(err)
	}

	if a, b := csvBytes(t, batch), csvBytes(t, scalar); !bytes.Equal(a, b) {
		t.Fatal("fault-injected batch matrix differs from per-cell prepared matrix")
	}
	if a, b := csvBytes(t, batch), csvBytes(t, perCell); !bytes.Equal(a, b) {
		t.Fatal("fault-injected batch matrix differs from the per-cell Simulate reference")
	}
	for _, pair := range []struct {
		name string
		rep  *RunReport
	}{{"scalar", scalarRep}, {"percell", perRep}} {
		if batchRep.OK != pair.rep.OK || batchRep.Failed != pair.rep.Failed ||
			batchRep.Attempts != pair.rep.Attempts || batchRep.Retries != pair.rep.Retries {
			t.Fatalf("fault accounting diverged from %s: batch %+v vs %+v", pair.name, batchRep, pair.rep)
		}
	}
	if batchRep.Failed == 0 || batchRep.Retries == 0 {
		t.Fatalf("fault storm too quiet to prove anything: %+v", batchRep)
	}
	if batchRep.Prepared.BatchedRows != len(testKernels()) {
		t.Fatalf("faulted rows did not batch: %+v", batchRep.Prepared)
	}
	if batchRep.Prepared.BatchFallbackCells == 0 {
		t.Fatalf("fault storm produced no per-cell fallbacks: %+v", batchRep.Prepared)
	}
}

// TestBatchInjectedPanicIsFinal pins the panic mapping: a panic
// isolated inside a batch (surfaced as gcn.ErrBatchPanic) must settle
// its cell exactly like a per-cell panic — StatusFailed, one attempt,
// an error matching ErrEnginePanic — without disturbing neighbors.
func TestBatchInjectedPanicIsFinal(t *testing.T) {
	space := testSpace(t)
	model := fault.Injector{PanicRate: 1, Seed: 1}
	opts := Options{Retries: 3, Row: model.WrapRow(Round.Row())}
	ks := testKernels()[:1]
	m, rep, err := RunContext(context.Background(), ks, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != rep.Cells {
		t.Fatalf("PanicRate 1: %d/%d cells failed", rep.Failed, rep.Cells)
	}
	// Panics are final: no retry budget may be spent on them.
	if rep.Attempts != rep.Cells || rep.Retries != 0 {
		t.Fatalf("panicked cells consumed retries: %+v", rep)
	}
	for _, f := range rep.Failures {
		if !errors.Is(f.Err, ErrEnginePanic) {
			t.Fatalf("batched panic surfaced as %v, want ErrEnginePanic", f.Err)
		}
	}
	for c := range m.Status[0] {
		if m.Status[0][c] != StatusFailed {
			t.Fatalf("cell %d status %v, want failed", c, m.Status[0][c])
		}
	}
}

// rowLevelBatchFail wraps a row engine so every multi-cell EvalBatch
// fails at the row level, forcing the sweep to evaluate each cell as a
// one-element batch.
type rowLevelBatchFail struct{ re gcn.RowEngine }

type rowLevelBatchFailRow struct{ gcn.PreparedRow }

var errRowBatch = errors.New("batchpath_test: row-level batch failure")

func (e rowLevelBatchFail) PrepareRow(k *kernel.Kernel) (gcn.PreparedRow, error) {
	pr, err := e.re.PrepareRow(k)
	if err != nil {
		return nil, err
	}
	return rowLevelBatchFailRow{pr}, nil
}

func (r rowLevelBatchFailRow) EvalBatch(cfgs []hw.Config, out []gcn.Result, errs []error) error {
	if len(cfgs) > 1 {
		return errRowBatch
	}
	return r.PreparedRow.EvalBatch(cfgs, out, errs)
}

func TestRowLevelBatchFailureFallsBackPerCell(t *testing.T) {
	space := testSpace(t)
	ks := testKernels()
	broken, brep, err := RunContext(context.Background(), ks, space,
		Options{Row: rowLevelBatchFail{Round.Row()}})
	if err != nil {
		t.Fatal(err)
	}
	scalar, _, err := RunContext(context.Background(), ks, space, Options{Row: simulateFunc(Round)})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := csvBytes(t, broken), csvBytes(t, scalar); !bytes.Equal(a, b) {
		t.Fatal("row-level batch failure did not fall back to the per-cell result")
	}
	if brep.Prepared.BatchedRows != 0 {
		t.Fatalf("failed batches counted as batched rows: %+v", brep.Prepared)
	}
	if want := brep.Cells; brep.Prepared.BatchFallbackCells != want {
		t.Fatalf("fallback cells = %d, want %d", brep.Prepared.BatchFallbackCells, want)
	}
}

func TestTelemetryPublishesBatchCounters(t *testing.T) {
	space := testSpace(t)
	ks := testKernels()
	tel := NewTelemetry(nil, nil)
	_, rep, err := RunContext(context.Background(), ks, space,
		Options{Engine: Round, Workers: 1, Observer: tel})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Prepared.BatchedRows != len(ks) {
		t.Fatalf("batched rows = %d, want %d", rep.Prepared.BatchedRows, len(ks))
	}
	got := map[string]float64{}
	for _, s := range tel.Registry().Snapshot() {
		got[s.Name] = s.Value
	}
	if v := got[MetricBatchedRows]; v != float64(len(ks)) {
		t.Fatalf("%s = %g, want %d", MetricBatchedRows, v, len(ks))
	}
	if v, present := got[MetricBatchFallbackCells]; !present || v != 0 {
		t.Fatalf("%s = %g (present %v), want 0 and registered", MetricBatchFallbackCells, v, present)
	}
}
