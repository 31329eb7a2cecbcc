package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpuscale/internal/fault"
	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
)

func testSpace(t *testing.T) hw.Space {
	t.Helper()
	s, err := hw.NewSpace([]int{4, 24, 44}, []float64{200, 600, 1000}, []float64{150, 700, 1250})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testKernels() []*kernel.Kernel {
	return []*kernel.Kernel{
		kernel.New("s", "p", "a").Geometry(512, 256).MustBuild(),
		kernel.New("s", "p", "b").Geometry(512, 256).Compute(30000, 100).MustBuild(),
		kernel.New("s", "p", "c").Geometry(64, 256).MustBuild(),
	}
}

// cellFunc adapts a per-cell test engine to the row seam: a prepared
// row evaluates each cell of a batch by calling the function, isolating
// per-cell panics the way the gcn engines do and starting no cell once
// the row's context has ended.
type cellFunc func(*kernel.Kernel, hw.Config) (gcn.Result, error)

func (f cellFunc) PrepareRow(k *kernel.Kernel) (gcn.PreparedRow, error) {
	return &cellFuncRow{f: f, k: k}, nil
}

type cellFuncRow struct {
	f   cellFunc
	k   *kernel.Kernel
	ctx context.Context
}

func (r *cellFuncRow) Stats() gcn.PreparedStats                       { return gcn.PreparedStats{} }
func (r *cellFuncRow) SetBudget(ctx context.Context, _ time.Duration) { r.ctx = ctx }

func (r *cellFuncRow) EvalBatch(cfgs []hw.Config, out []gcn.Result, errs []error) error {
	for i, cfg := range cfgs {
		if r.ctx != nil && r.ctx.Err() != nil {
			out[i], errs[i] = gcn.Result{}, r.ctx.Err()
			continue
		}
		out[i], errs[i] = r.call(cfg)
	}
	return nil
}

func (r *cellFuncRow) call(cfg hw.Config) (res gcn.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = gcn.Result{}, fmt.Errorf("%w: %v\n%s", gcn.ErrBatchPanic, p, debug.Stack())
		}
	}()
	return r.f(r.k, cfg)
}

// simulateFunc is the per-cell reference for engine e: the public
// gcn.Simulate* entry point, which prepares afresh for every cell.
func simulateFunc(e Engine) cellFunc {
	switch e {
	case Detailed:
		return gcn.SimulateDetailed
	case Wave:
		return gcn.SimulateWave
	case Pipeline:
		return gcn.SimulatePipeline
	default:
		return gcn.Simulate
	}
}

// checkAccounting asserts the report partitions every cell exactly.
func checkAccounting(t *testing.T, rep *RunReport) {
	t.Helper()
	got := rep.OK + rep.Failed + rep.Canceled + rep.Quarantined + rep.Skipped
	if got != rep.Cells {
		t.Fatalf("report does not partition the matrix: ok %d + failed %d + canceled %d + quarantined %d + skipped %d = %d, want %d",
			rep.OK, rep.Failed, rep.Canceled, rep.Quarantined, rep.Skipped, got, rep.Cells)
	}
	// Rows that fail preparation settle wholesale with one record for
	// the whole row, so records can undercount cells — but never
	// overcount, and never drop to zero while failures exist.
	if len(rep.Failures) > rep.Failed {
		t.Fatalf("%d failure records for %d failed cells", len(rep.Failures), rep.Failed)
	}
	if rep.Failed > 0 && len(rep.Failures) == 0 {
		t.Fatalf("no failure records for %d failed cells", rep.Failed)
	}
}

func TestRunShape(t *testing.T) {
	space := testSpace(t)
	m, err := Run(testKernels(), space, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Kernels) != 3 {
		t.Fatalf("rows = %d, want 3", len(m.Kernels))
	}
	for r := range m.Kernels {
		if len(m.Throughput[r]) != space.Size() {
			t.Fatalf("row %d has %d cells, want %d", r, len(m.Throughput[r]), space.Size())
		}
		if !m.RowComplete(r) {
			t.Fatalf("fault-free sweep left row %d incomplete", r)
		}
		for c, v := range m.Throughput[r] {
			if v <= 0 {
				t.Fatalf("cell (%d,%d) = %g", r, c, v)
			}
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	space := testSpace(t)
	m1, err := Run(testKernels(), space, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m8, err := Run(testKernels(), space, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1.Throughput, m8.Throughput) {
		t.Fatal("results depend on worker count")
	}
}

func TestRunNoiseDeterministicAndBounded(t *testing.T) {
	space := testSpace(t)
	a, err := Run(testKernels(), space, Options{NoiseStdDev: 0.05, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testKernels(), space, Options{NoiseStdDev: 0.05, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Throughput, b.Throughput) {
		t.Fatal("noisy sweep not reproducible for fixed seed")
	}
	clean, err := Run(testKernels(), space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for r := range clean.Throughput {
		for c := range clean.Throughput[r] {
			n, cl := a.Throughput[r][c], clean.Throughput[r][c]
			if n != cl {
				diff = true
			}
			if n <= 0 {
				t.Fatalf("noise produced non-positive throughput %g", n)
			}
		}
	}
	if !diff {
		t.Fatal("noise had no effect")
	}
}

// TestRunNoiseLognormalUnbiasedInLog verifies the lognormal noise
// model: log-factors must average near zero (median factor 1) instead
// of the positive bias the old clamped 1+N(0,sigma) factor had.
func TestRunNoiseLognormalUnbiasedInLog(t *testing.T) {
	space := testSpace(t)
	const sigma = 0.5 // large sigma to make any clamp bias visible
	clean, err := Run(testKernels(), space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sumLog float64
	var n int
	for seed := int64(0); seed < 40; seed++ {
		noisy, err := Run(testKernels(), space, Options{NoiseStdDev: sigma, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for r := range clean.Throughput {
			for c := range clean.Throughput[r] {
				f := noisy.Throughput[r][c] / clean.Throughput[r][c]
				if f <= 0 {
					t.Fatalf("noise factor %g not positive", f)
				}
				sumLog += math.Log(f)
				n++
			}
		}
	}
	mean := sumLog / float64(n)
	// The old clamped-normal model has E[log f] ~= -sigma^2/2 offset
	// plus clamp distortion; the lognormal model is 0 by construction.
	if math.Abs(mean) > 0.02 {
		t.Fatalf("mean log noise factor %g over %d samples; want ~0 (unbiased lognormal)", mean, n)
	}
}

func TestRunErrors(t *testing.T) {
	space := testSpace(t)
	if _, err := Run(nil, space, Options{}); err == nil {
		t.Error("empty kernel list accepted")
	}
	if _, err := Run(testKernels(), hw.Space{}, Options{}); err == nil {
		t.Error("empty space accepted")
	}
	// A kernel that cannot fit on a CU must fail the strict Run path.
	bad := kernel.New("s", "p", "bad").Geometry(16, 1024).MustBuild()
	bad.SGPRsPerWave = 512
	if _, err := Run([]*kernel.Kernel{bad}, space, Options{Workers: 4}); err == nil {
		t.Error("unfittable kernel accepted")
	}
	// The graceful path reports the same kernel as failed cells
	// instead of erroring.
	m, rep, err := RunContext(context.Background(), []*kernel.Kernel{bad}, space, Options{Workers: 4})
	if err != nil {
		t.Fatalf("RunContext must degrade gracefully, got %v", err)
	}
	checkAccounting(t, rep)
	if rep.Failed != space.Size() {
		t.Fatalf("failed cells = %d, want %d", rep.Failed, space.Size())
	}
	for c := range m.Status[0] {
		if m.Status[0][c] != StatusFailed {
			t.Fatalf("cell %d status = %v, want failed", c, m.Status[0][c])
		}
		if m.Throughput[0][c] != 0 {
			t.Fatalf("failed cell %d holds throughput %g, want 0", c, m.Throughput[0][c])
		}
	}
}

func TestRunContextRetriesRecoverFaults(t *testing.T) {
	space := testSpace(t)
	clean, err := Run(testKernels(), space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := fault.Injector{ErrorRate: 0.2, Seed: 5}
	m, rep, err := RunContext(context.Background(), testKernels(), space,
		Options{Row: in.WrapRow(gcn.RoundRow), Retries: 6})
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, rep)
	if rep.Failed != 0 {
		t.Fatalf("%d cells still failed after retries: %v", rep.Failed, rep.Failures[0])
	}
	if rep.Retries == 0 {
		t.Fatal("20% fault rate consumed no retries")
	}
	if !reflect.DeepEqual(m.Throughput, clean.Throughput) {
		t.Fatal("recovered sweep differs from fault-free sweep")
	}
}

func TestRunContextPartialMatrixDeterministic(t *testing.T) {
	space := testSpace(t)
	sweepOnce := func(workers int) (*Matrix, *RunReport) {
		in := fault.Injector{ErrorRate: 0.3, Seed: 21}
		m, rep, err := RunContext(context.Background(), testKernels(), space,
			Options{Workers: workers, Row: in.WrapRow(gcn.RoundRow)})
		if err != nil {
			t.Fatal(err)
		}
		return m, rep
	}
	m1, rep1 := sweepOnce(1)
	m8, rep8 := sweepOnce(8)
	checkAccounting(t, rep1)
	if rep1.Failed == 0 {
		t.Fatal("30% fault rate with no retries failed nothing")
	}
	if rep1.Failed != rep8.Failed {
		t.Fatalf("failure count depends on worker count: %d vs %d", rep1.Failed, rep8.Failed)
	}
	if !reflect.DeepEqual(m1.Status, m8.Status) {
		t.Fatal("status plane depends on worker count")
	}
	if !reflect.DeepEqual(m1.Throughput, m8.Throughput) {
		t.Fatal("partial throughput depends on worker count")
	}
}

func TestRunContextCorruptResultsRejectedAndRetried(t *testing.T) {
	space := testSpace(t)
	// A corrupting engine with no retries: every corrupt cell must be
	// caught by validation, never stored.
	in := fault.Injector{CorruptRate: 0.4, Seed: 13}
	m, rep, err := RunContext(context.Background(), testKernels(), space,
		Options{Row: in.WrapRow(gcn.RoundRow)})
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, rep)
	if rep.Failed == 0 {
		t.Fatal("corruption slipped past validation")
	}
	for _, f := range rep.Failures {
		if !errors.Is(f.Err, ErrCorruptResult) {
			t.Fatalf("failure not marked corrupt: %v", f.Err)
		}
	}
	for r := range m.Throughput {
		for c, v := range m.Throughput[r] {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("corrupt value %g stored at (%d,%d)", v, r, c)
			}
		}
	}
	// With retries the same fault stream recovers completely.
	clean, err := Run(testKernels(), space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in2 := fault.Injector{CorruptRate: 0.4, Seed: 13}
	m2, rep2, err := RunContext(context.Background(), testKernels(), space,
		Options{Row: in2.WrapRow(gcn.RoundRow), Retries: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Failed != 0 {
		t.Fatalf("retries left %d corrupt cells", rep2.Failed)
	}
	if !reflect.DeepEqual(m2.Throughput, clean.Throughput) {
		t.Fatal("recovered corrupt sweep differs from clean sweep")
	}
}

func TestRunContextSimTimeout(t *testing.T) {
	space := testSpace(t)
	// Every cell stalls for 30ms; the injector's cooperative stall ends
	// at the cell's 1ms budget instead.
	stall := fault.Injector{StallRate: 1, Stall: 30 * time.Millisecond, Seed: 1}
	ks := testKernels()[:1]
	start := time.Now()
	_, rep, err := RunContext(context.Background(), ks, space,
		Options{Row: stall.WrapRow(gcn.RoundRow), SimTimeout: time.Millisecond, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, rep)
	if rep.Failed != space.Size() {
		t.Fatalf("failed = %d, want every cell (%d)", rep.Failed, space.Size())
	}
	for _, f := range rep.Failures {
		if !errors.Is(f.Err, ErrSimTimeout) {
			t.Fatalf("failure not a timeout: %v", f.Err)
		}
	}
	if d := time.Since(start); d >= time.Duration(space.Size())*30*time.Millisecond {
		t.Fatalf("sweep took %v: the stalls ran to completion instead of ending at the budget", d)
	}
}

func TestRunContextCancellation(t *testing.T) {
	space := testSpace(t)
	started := make(chan struct{}, 1)
	slow := func(k *kernel.Kernel, cfg hw.Config) (gcn.Result, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		time.Sleep(2 * time.Millisecond)
		return gcn.Simulate(k, cfg)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-started
		cancel()
	}()
	start := time.Now()
	m, rep, err := RunContext(ctx, testKernels(), space,
		Options{Row: cellFunc(slow), Workers: 2, Retries: 3, Backoff: 10 * time.Millisecond})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v; sweep did not return promptly", elapsed)
	}
	checkAccounting(t, rep)
	if rep.Canceled == 0 {
		t.Fatal("cancelled sweep reported no canceled cells")
	}
	for r := range m.Kernels {
		if m.Status[r] == nil {
			t.Fatalf("row %d has no status plane after cancellation", r)
		}
	}
	// Workers must drain: allow the pool a moment, then check for
	// leaks (the race detector also patrols this test).
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, n)
	}
}

func TestRunBackoffRespectsCancel(t *testing.T) {
	space := testSpace(t)
	failing := func(k *kernel.Kernel, cfg hw.Config) (gcn.Result, error) {
		return gcn.Result{}, fmt.Errorf("always down")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	// An hour of backoff per retry: only cancellation can end this.
	_, rep, err := RunContext(ctx, testKernels(), space,
		Options{Row: cellFunc(failing), Retries: 5, Backoff: time.Hour, Workers: 2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("backoff sleep ignored cancellation")
	}
	checkAccounting(t, rep)
}

func TestResumeRecomputesOnlyMissingRows(t *testing.T) {
	space := testSpace(t)
	ks := testKernels()
	// First pass: kernel b is permanently down.
	bDown := func(k *kernel.Kernel, cfg hw.Config) (gcn.Result, error) {
		if k.Name == "p.b" {
			return gcn.Result{}, fmt.Errorf("b is down")
		}
		return gcn.Simulate(k, cfg)
	}
	first, rep1, err := RunContext(context.Background(), ks, space, Options{Row: cellFunc(bDown)})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Failed != space.Size() {
		t.Fatalf("first pass failed %d cells, want %d", rep1.Failed, space.Size())
	}

	// Resume with a counting clean engine: only b's row may run.
	var calls atomic.Int64
	counting := func(k *kernel.Kernel, cfg hw.Config) (gcn.Result, error) {
		calls.Add(1)
		return gcn.Simulate(k, cfg)
	}
	m, rep2, err := Resume(context.Background(), ks, space, Options{Row: cellFunc(counting)}, first)
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, rep2)
	if got, want := calls.Load(), int64(space.Size()); got != want {
		t.Fatalf("resume ran %d simulations, want %d (one recomputed row)", got, want)
	}
	if rep2.Skipped != 2*space.Size() {
		t.Fatalf("skipped = %d, want %d", rep2.Skipped, 2*space.Size())
	}
	clean, err := Run(ks, space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Throughput, clean.Throughput) {
		t.Fatal("resumed matrix differs from a clean run")
	}
	for r := range m.Kernels {
		if !m.RowComplete(r) {
			t.Fatalf("row %d incomplete after resume", r)
		}
	}
}

func TestResumeSurvivesCorpusChanges(t *testing.T) {
	space := testSpace(t)
	ks := testKernels()
	prior, _, err := RunContext(context.Background(), ks[:2], space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The corpus grew by one kernel and reordered; prior rows must
	// still be found by name.
	grown := []*kernel.Kernel{ks[2], ks[0], ks[1]}
	m, rep, err := Resume(context.Background(), grown, space, Options{}, prior)
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, rep)
	if rep.Skipped != 2*space.Size() {
		t.Fatalf("skipped = %d, want two prior rows (%d)", rep.Skipped, 2*space.Size())
	}
	if m.Kernels[0] != "p.c" || m.Row("p.a") != 1 {
		t.Fatalf("resumed matrix order wrong: %v", m.Kernels)
	}
}

func TestOnRowFiresPerRow(t *testing.T) {
	space := testSpace(t)
	var mu sync.Mutex
	seen := map[string]bool{}
	opts := Options{
		Workers: 4,
		OnRow: func(m *Matrix, r int) {
			mu.Lock()
			defer mu.Unlock()
			seen[m.Kernels[r]] = m.RowComplete(r)
		},
	}
	if _, _, err := RunContext(context.Background(), testKernels(), space, opts); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("OnRow fired for %d rows, want 3", len(seen))
	}
	for k, complete := range seen {
		if !complete {
			t.Fatalf("row %s reported incomplete in OnRow", k)
		}
	}
}

func TestRowLookup(t *testing.T) {
	space := testSpace(t)
	m, err := Run(testKernels(), space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Row("p.b"); got != 1 {
		t.Errorf("Row(p.b) = %d, want 1", got)
	}
	if got := m.Row("nope"); got != -1 {
		t.Errorf("Row(nope) = %d, want -1", got)
	}
}

// TestRowLookupConcurrent exercises the lazily built index under the
// race detector: the map must build exactly once and serve all
// readers.
func TestRowLookupConcurrent(t *testing.T) {
	space := testSpace(t)
	m, err := Run(testKernels(), space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if m.Row("p.c") != 2 || m.Row("p.a") != 0 || m.Row("absent") != -1 {
					panic("bad lookup")
				}
			}
		}()
	}
	wg.Wait()
}

func TestReportSummary(t *testing.T) {
	rep := &RunReport{Cells: 12, OK: 8, Failed: 2, Canceled: 1, Quarantined: 1,
		Attempts: 12, Retries: 2, BreakerTrips: 1}
	s := rep.Summary()
	for _, want := range []string{"12 cells", "8 ok", "2 failed", "1 canceled",
		"1 quarantined", "12 attempts", "2 retries", "1 breaker trip"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
	if strings.Contains(s, "stalled") {
		t.Errorf("summary %q still reports stalled cells", s)
	}
	if rep.Complete() {
		t.Error("report with failures claims completeness")
	}
	for _, bad := range []*RunReport{
		{Cells: 4, OK: 3, Canceled: 1},
		{Cells: 4, OK: 3, Quarantined: 1},
	} {
		if bad.Complete() {
			t.Errorf("report %+v claims completeness", bad)
		}
	}
	if !(&RunReport{Cells: 4, OK: 4}).Complete() {
		t.Error("clean report not complete")
	}
}

func TestStatusStrings(t *testing.T) {
	for _, s := range []CellStatus{StatusOK, StatusFailed, StatusCanceled, StatusStalled, StatusQuarantined} {
		got, err := ParseStatus(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStatus(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseStatus("teapot"); err == nil {
		t.Error("bad status accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	space := testSpace(t)
	m, err := Run(testKernels(), space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, space)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Kernels, m.Kernels) {
		t.Fatalf("kernels differ: %v vs %v", got.Kernels, m.Kernels)
	}
	if !reflect.DeepEqual(got.Throughput, m.Throughput) {
		t.Fatal("throughput rows differ after round trip")
	}
	if !reflect.DeepEqual(got.Bound, m.Bound) {
		t.Fatal("bound rows differ after round trip")
	}
}

func TestRuns(t *testing.T) {
	if got := Runs(267, 891); got != 237897 {
		t.Errorf("Runs(267,891) = %d, want 237897 (the paper's measurement count)", got)
	}
}
