package sweep

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"gpuscale/internal/fault"
	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
)

// Golden equivalence for the prepared row path: a sweep through
// Options.Row (or the Engine.Row default) must produce a matrix
// byte-identical to a per-cell reference that calls the public
// gcn.Simulate* entry points cell by cell — same throughput, time,
// bound and status planes — for every engine, with noise, under fault
// injection, and across resume. The CSV encoding covers all four
// planes, so comparing serialized bytes is the strictest cheap check.

func csvBytes(t *testing.T, m *Matrix) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// lightKernels are small enough for the event-driven engines: the
// per-cell reference half of the equivalence runs O(instructions x
// waves) work per cell with no memoization, so the plumbing test keeps
// launches modest (engine-level equivalence at scale is gcn's job).
func lightKernels() []*kernel.Kernel {
	return []*kernel.Kernel{
		kernel.New("s", "p", "a").Geometry(48, 256).MustBuild(),
		kernel.New("s", "p", "b").Geometry(48, 256).Compute(2000, 100).MustBuild(),
		kernel.New("s", "p", "c").Geometry(16, 256).MustBuild(),
	}
}

func TestRowPathMatchesPerCellPathAllEngines(t *testing.T) {
	space := testSpace(t)
	for _, e := range []Engine{Round, Detailed, Wave, Pipeline} {
		ks := testKernels()
		seeds := []int64{0, 7}
		if e == Wave || e == Pipeline {
			ks = lightKernels()
		}
		if e == Pipeline {
			// A single per-cell pipeline evaluation costs ~40ms of
			// unmemoized cycle simulation; one noisy seed over two
			// kernels proves the plumbing without a minute of runtime.
			ks, seeds = ks[:2], seeds[1:]
		}
		t.Run(e.String(), func(t *testing.T) {
			for _, seed := range seeds {
				var noise float64
				if seed != 0 {
					noise = 0.05
				}
				perCell, _, err := RunContext(context.Background(), ks, space,
					Options{Row: simulateFunc(e), NoiseStdDev: noise, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				prepared, rep, err := RunContext(context.Background(), ks, space,
					Options{Engine: e, NoiseStdDev: noise, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if a, b := csvBytes(t, perCell), csvBytes(t, prepared); !bytes.Equal(a, b) {
					t.Fatalf("engine %s seed %d: prepared-path matrix differs from per-cell path", e, seed)
				}
				if rep.Prepared.Rows != len(ks) {
					t.Fatalf("prepared rows = %d, want %d", rep.Prepared.Rows, len(ks))
				}
				// The batched round path derives hit rates per CU block
				// (a handful per row) rather than per cell, so hit counts
				// are path-dependent; the memo being exercised at all is
				// the invariant.
				if rep.Prepared.HitRateHits+rep.Prepared.HitRateMisses == 0 {
					t.Fatalf("prepared path never touched the hit-rate memo: %+v", rep.Prepared)
				}
			}
		})
	}
}

func TestRowPathFaultEquivalence(t *testing.T) {
	space := testSpace(t)
	model := fault.Injector{ErrorRate: 0.2, CorruptRate: 0.1, PanicRate: 0.05, Seed: 3}
	base := Options{Retries: 2, Breaker: 4}

	perOpts := base
	perOpts.Row = model.WrapRow(simulateFunc(Round))
	perCell, perRep, err := RunContext(context.Background(), testKernels(), space, perOpts)
	if err != nil {
		t.Fatal(err)
	}

	rowOpts := base
	rowOpts.Row = model.WrapRow(Round.Row())
	prepared, rowRep, err := RunContext(context.Background(), testKernels(), space, rowOpts)
	if err != nil {
		t.Fatal(err)
	}

	if a, b := csvBytes(t, perCell), csvBytes(t, prepared); !bytes.Equal(a, b) {
		t.Fatal("fault-injected prepared path differs from fault-injected per-cell path")
	}
	if perRep.OK != rowRep.OK || perRep.Failed != rowRep.Failed ||
		perRep.Attempts != rowRep.Attempts || perRep.Retries != rowRep.Retries {
		t.Fatalf("fault accounting diverged: per-cell %+v vs row %+v", perRep, rowRep)
	}
	if perRep.Failed == 0 || perRep.Retries == 0 {
		t.Fatalf("fault storm too quiet to prove anything: %+v", perRep)
	}
}

func TestRowPathResumeEquivalence(t *testing.T) {
	space := testSpace(t)
	clean, _, err := RunContext(context.Background(), testKernels(), space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// First pass: the middle kernel always fails, leaving its row
	// incomplete.
	failName := testKernels()[1].Name
	failB := func(k *kernel.Kernel, cfg hw.Config) (gcn.Result, error) {
		if k.Name == failName {
			return gcn.Result{}, fault.ErrInjected
		}
		return gcn.Simulate(k, cfg)
	}
	partial, _, err := RunContext(context.Background(), testKernels(), space, Options{Row: cellFunc(failB)})
	if err != nil {
		t.Fatal(err)
	}
	// Resume on the default prepared path recomputes only row "b".
	resumed, rep, err := Resume(context.Background(), testKernels(), space, Options{}, partial)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 2*space.Size() {
		t.Fatalf("resume skipped %d cells, want %d", rep.Skipped, 2*space.Size())
	}
	if rep.Prepared.Rows != 1 {
		t.Fatalf("resume prepared %d rows, want 1", rep.Prepared.Rows)
	}
	if a, b := csvBytes(t, clean), csvBytes(t, resumed); !bytes.Equal(a, b) {
		t.Fatal("resumed prepared-path matrix differs from clean run")
	}
}

func TestPrepareFailureSettlesRowOnce(t *testing.T) {
	space := testSpace(t)
	bad := kernel.New("s", "p", "huge").Geometry(16, 1024).MustBuild()
	bad.SGPRsPerWave = 512 // passes Validate, fits on no CU
	ks := []*kernel.Kernel{testKernels()[0], bad}
	m, rep, err := RunContext(context.Background(), ks, space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, rep)
	if rep.Failed != space.Size() {
		t.Fatalf("failed = %d, want the whole row (%d)", rep.Failed, space.Size())
	}
	if len(rep.Failures) != 1 {
		t.Fatalf("%d failure records for a row-level condition, want 1", len(rep.Failures))
	}
	if !strings.Contains(rep.Failures[0].Err.Error(), "prepare failed for whole row") {
		t.Fatalf("failure record %v does not name the prepare step", rep.Failures[0].Err)
	}
	for c := range m.Status[1] {
		if m.Status[1][c] != StatusFailed {
			t.Fatalf("cell %d status = %v, want failed", c, m.Status[1][c])
		}
		if m.Throughput[1][c] != 0 || m.TimeNS[1][c] != 0 {
			t.Fatalf("failed cell %d holds data", c)
		}
	}
}

// rowRecorder captures the row and retry events.
type rowRecorder struct {
	NopObserver
	mu      sync.Mutex
	rows    []RowReport
	retries int
}

func (r *rowRecorder) RowDone(rr RowReport) {
	r.mu.Lock()
	r.rows = append(r.rows, rr)
	r.mu.Unlock()
}

func (r *rowRecorder) Retry(int, string, hw.Config, int, time.Duration, error) {
	r.mu.Lock()
	r.retries++
	r.mu.Unlock()
}

// TestRowEventsAccountForEveryCell: each row settles with exactly one
// RowDone — breaker-quarantined remainders and rows the sweep-level
// brake quarantines wholesale included — whose status counts add up to
// the report, and each retry fires one Retry.
func TestRowEventsAccountForEveryCell(t *testing.T) {
	space := testSpace(t)
	calls := 0
	flaky := func(*kernel.Kernel, hw.Config) (gcn.Result, error) {
		calls++
		if calls%3 != 0 {
			return gcn.Result{}, fault.ErrInjected
		}
		return gcn.Result{Throughput: 1, TimeNS: 1}, nil
	}
	rec := &rowRecorder{}
	// One retry recovers some cells; the breaker trips after 2
	// consecutive failures, and with QuarantineAfter 1 and a single
	// worker, later rows are quarantined wholesale.
	_, rep, err := RunContext(context.Background(), testKernels(), space, Options{
		Row: cellFunc(flaky), Retries: 1, Breaker: 2, QuarantineAfter: 1, Workers: 1, Observer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, rep)
	if rep.Quarantined == 0 || rep.Retries == 0 || rep.OK == 0 {
		t.Fatalf("scenario lacks a quarantine, a retry or a success; test proves nothing: %s", rep.Summary())
	}
	if len(rec.rows) != len(testKernels()) {
		t.Fatalf("%d RowDone events for %d rows", len(rec.rows), len(testKernels()))
	}
	var sum RunReport
	for _, rr := range rec.rows {
		sum.add(rr)
	}
	if sum.OK != rep.OK || sum.Failed != rep.Failed || sum.Canceled != rep.Canceled ||
		sum.Quarantined != rep.Quarantined || sum.Attempts != rep.Attempts || sum.Retries != rep.Retries {
		t.Fatalf("row events add up to %s, report says %s", sum.Summary(), rep.Summary())
	}
	if rec.retries != rep.Retries {
		t.Fatalf("%d Retry events, report says %d retries", rec.retries, rep.Retries)
	}
}

func TestSweepValidatesConfigAxisUpfront(t *testing.T) {
	bad := hw.Space{CUCounts: []int{0}, CoreClocksMHz: []float64{1000}, MemClocksMHz: []float64{1250}}
	_, _, err := RunContext(context.Background(), testKernels(), bad, Options{})
	if err == nil {
		t.Fatal("invalid config axis accepted")
	}
	if !strings.Contains(err.Error(), "config 1 of 1") {
		t.Fatalf("error %q does not position the bad config", err)
	}
}

func TestTelemetryPublishesPreparedCounters(t *testing.T) {
	space := testSpace(t)
	tel := NewTelemetry(nil, nil)
	_, rep, err := RunContext(context.Background(), testKernels(), space, Options{Observer: tel})
	if err != nil {
		t.Fatal(err)
	}
	reg := tel.Registry()
	if got := reg.Counter(MetricPreparedRows, "").Value(); got != uint64(rep.Prepared.Rows) {
		t.Fatalf("prepared rows counter = %d, report %d", got, rep.Prepared.Rows)
	}
	if got := reg.Counter(MetricHitRateMemoHits, "").Value(); got != uint64(rep.Prepared.HitRateHits) {
		t.Fatalf("hit-rate memo hits counter = %d, report %d", got, rep.Prepared.HitRateHits)
	}
	if got := reg.Counter(MetricResidentSetMemoMisses, "").Value(); got != uint64(rep.Prepared.ResidentSetMisses) {
		t.Fatalf("resident-set memo misses counter = %d, report %d", got, rep.Prepared.ResidentSetMisses)
	}
}
