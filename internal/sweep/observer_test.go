package sweep

import (
	"bytes"
	"context"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gpuscale/internal/fault"
	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/obs"
)

// faultyOpts returns sweep options wrapping the round engine in a
// deterministic fault storm with enough retries to recover fully.
func faultyOpts(extra func(*Options)) Options {
	in := fault.Injector{ErrorRate: 0.2, Seed: 5}
	o := Options{Workers: 4, Row: in.WrapRow(gcn.RoundRow), Retries: 8}
	if extra != nil {
		extra(&o)
	}
	return o
}

func TestTelemetryCountersMatchReport(t *testing.T) {
	space := testSpace(t)
	tel := NewTelemetry(nil, nil)
	opts := faultyOpts(func(o *Options) { o.Observer = tel })
	_, rep, err := RunContext(context.Background(), testKernels(), space, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, rep)
	reg := tel.Registry()
	counters := map[string]uint64{
		"attempts":    reg.Counter(MetricAttempts, "").Value(),
		"retries":     reg.Counter(MetricRetries, "").Value(),
		"ok":          reg.Counter(MetricCellsDone, "", obs.L("status", "ok")).Value(),
		"failed":      reg.Counter(MetricCellsDone, "", obs.L("status", "failed")).Value(),
		"canceled":    reg.Counter(MetricCellsDone, "", obs.L("status", "canceled")).Value(),
		"quarantined": reg.Counter(MetricCellsDone, "", obs.L("status", "quarantined")).Value(),
		"rows":        reg.Counter(MetricRowsDone, "").Value(),
	}
	want := map[string]uint64{
		"attempts":    uint64(rep.Attempts),
		"retries":     uint64(rep.Retries),
		"ok":          uint64(rep.OK),
		"failed":      uint64(rep.Failed),
		"canceled":    uint64(rep.Canceled),
		"quarantined": uint64(rep.Quarantined),
		"rows":        uint64(rep.Kernels),
	}
	if !reflect.DeepEqual(counters, want) {
		t.Fatalf("registry counters %v do not match report %v", counters, want)
	}
	if rep.Retries == 0 {
		t.Fatal("fault storm consumed no retries; test proves nothing")
	}
	if got := reg.Gauge(MetricCells, "").Value(); got != float64(rep.Cells) {
		t.Fatalf("cells gauge = %g, want %d", got, rep.Cells)
	}
	if n := reg.Histogram(MetricQueueWait, "", nil).Count(); n != uint64(rep.Kernels) {
		t.Fatalf("queue-wait histogram has %d observations, want one per row (%d)", n, rep.Kernels)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "stalled") || strings.Contains(sb.String(), "latency") {
		t.Fatalf("registry still exports a stalled or per-cell latency series:\n%s", sb.String())
	}
}

func TestObservedSweepByteIdenticalMatrix(t *testing.T) {
	space := testSpace(t)
	// Noise + faults: the adversarial case for observer interference
	// with RNG streams and retry decisions.
	mk := func(o Observer) *Matrix {
		opts := faultyOpts(func(op *Options) {
			op.NoiseStdDev = 0.05
			op.Seed = 11
			op.Observer = o
		})
		m, rep, err := RunContext(context.Background(), testKernels(), space, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkAccounting(t, rep)
		return m
	}
	var tw bytes.Buffer
	plain := mk(nil)
	nop := mk(NopObserver{})
	tel := mk(func() *Telemetry {
		tl := NewTelemetry(nil, obs.NewSink(obs.NewTraceWriter(&tw), nil))
		tl.EmitProgress(discardWriter{}, 0)
		return tl
	}())

	for name, m := range map[string]*Matrix{"NopObserver": nop, "Telemetry": tel} {
		var a, b bytes.Buffer
		if err := plain.WriteCSV(&a); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s-observed matrix differs from unobserved run", name)
		}
	}
}

// discardWriter is a throwaway writer; keeps the test free of an io
// import collision with the package under test.
type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// lockedBuilder is a strings.Builder that is safe for concurrent use,
// as EmitProgress requires of its writer.
type lockedBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuilder) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

// TestTelemetryTraceEvents: the trace is row-grained — one row event
// per row whose status counts add up to the report, one attempt event
// per retry naming the error it retried, and no per-cell events.
func TestTelemetryTraceEvents(t *testing.T) {
	space := testSpace(t)
	var buf bytes.Buffer
	tel := NewTelemetry(nil, obs.NewSink(obs.NewTraceWriter(&buf), nil))
	opts := faultyOpts(func(o *Options) { o.Observer = tel })
	_, rep, err := RunContext(context.Background(), testKernels(), space, opts)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatalf("trace is not parseable JSONL: %v", err)
	}
	byName := map[string]int{}
	statuses := map[string]int{}
	for _, e := range evs {
		byName[e.Name]++
		switch e.Name {
		case "attempt":
			if n, _ := e.Args["attempt"].(float64); n < 2 || e.Args["err"] == nil || e.Args["kernel"] == nil || e.Dur <= 0 {
				t.Fatalf("retry event lacks an attempt >= 2, its cause, kernel or duration: %+v", e)
			}
		case "row":
			for _, k := range []string{"ok", "failed", "canceled", "quarantined", "attempts", "retries"} {
				n, _ := e.Args[k].(float64)
				statuses[k] += int(n)
			}
		}
	}
	if byName["attempt"] != rep.Retries || rep.Retries == 0 {
		t.Fatalf("trace has %d retry events, report says %d retries", byName["attempt"], rep.Retries)
	}
	if byName["row"] != rep.Kernels {
		t.Fatalf("trace has %d row events, want %d", byName["row"], rep.Kernels)
	}
	want := map[string]int{"ok": rep.OK, "failed": rep.Failed, "canceled": rep.Canceled,
		"quarantined": rep.Quarantined, "attempts": rep.Attempts, "retries": rep.Retries}
	if !reflect.DeepEqual(statuses, want) {
		t.Fatalf("row events add up to %v, report says %v", statuses, want)
	}
	if byName["sweep"] != 1 || byName["sweep.start"] != 1 || len(evs) != rep.Kernels+rep.Retries+2 {
		t.Fatalf("trace events by name = %v, want only rows, retries and the sweep lifecycle", byName)
	}
}

func TestTelemetrySkippedCellsOnResume(t *testing.T) {
	space := testSpace(t)
	ks := testKernels()
	prior, _, err := RunContext(context.Background(), ks, space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry(nil, nil)
	_, rep, err := Resume(context.Background(), ks, space, Options{Observer: tel}, prior)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != rep.Cells {
		t.Fatalf("full prior should skip everything: %s", rep.Summary())
	}
	got := tel.Registry().Counter(MetricCellsDone, "", obs.L("status", "skipped")).Value()
	if got != uint64(rep.Skipped) {
		t.Fatalf("skipped counter = %d, want %d", got, rep.Skipped)
	}
	s := tel.Progress().Snapshot()
	if s.Done != uint64(rep.Cells) || s.Total != uint64(rep.Cells) {
		t.Fatalf("progress after all-skipped resume = %+v", s)
	}
}

// TestJournalResumeWithObserverUnderCancellation drives the full
// production wiring — OnRow committing each complete row to the
// journal, the journal's group appends reported to a Telemetry
// observer with tracing and progress, fault injection — through a
// mid-sweep cancellation, then resumes. Run under -race (make check
// does) this doubles as the concurrency proof for the observer
// delivery path.
func TestJournalResumeWithObserverUnderCancellation(t *testing.T) {
	space := testSpace(t)
	ks := testKernels()
	path := filepath.Join(t.TempDir(), "journal.csv")

	var buf bytes.Buffer
	sink := obs.NewSink(obs.NewTraceWriter(&buf), nil)
	tel := NewTelemetry(nil, sink)
	tel.EmitProgress(discardWriter{}, 0)
	j, err := OpenJournalWith(path, space, JournalOptions{OnAppend: tel.JournalAppend})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	slowSim := func(k *kernel.Kernel, cfg hw.Config) (gcn.Result, error) {
		// Cancel mid-sweep, from inside a worker, once the first row
		// has had time to complete.
		if calls.Add(1) == int64(space.Size()+3) {
			cancel()
		}
		return gcn.Simulate(k, cfg)
	}
	opts := Options{
		Workers: 1, // one row at a time => first row journals before cancel
		Row:     cellFunc(slowSim),
		OnRow: func(m *Matrix, r int) {
			if !m.RowComplete(r) {
				return
			}
			rec, err := EncodeRow(m, r)
			if err != nil {
				t.Errorf("encoding row %d: %v", r, err)
				return
			}
			j.Commit(rec, func(err error) {
				if err != nil {
					t.Errorf("journal append: %v", err)
				}
			})
		},
		Observer: tel,
	}
	m, rep, err := RunContext(ctx, ks, space, opts)
	if err == nil {
		t.Fatal("canceled sweep returned nil error")
	}
	checkAccounting(t, rep)
	if rep.Canceled == 0 {
		t.Fatalf("cancellation landed after the sweep finished: %s", rep.Summary())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	complete := 0
	for r := range m.Kernels {
		if m.RowComplete(r) {
			complete++
		}
	}
	// One append per group: the counters count appends and the rows
	// they carried, which are the complete rows.
	appends := tel.Registry().Counter(MetricJournalAppends, "").Value()
	rows := tel.Registry().Counter(MetricJournalRows, "").Value()
	if complete == 0 || rows != uint64(complete) || appends == 0 || appends > rows {
		t.Fatalf("journal appends = %d carrying %d rows, want 1 to %d appends carrying the %d complete rows",
			appends, rows, complete, complete)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatalf("trace corrupted by cancellation: %v", err)
	}
	spans, spanRows := 0, 0.0
	for _, e := range evs {
		if e.Name == "journal.append" {
			spans++
			n, _ := e.Args["rows"].(float64)
			spanRows += n
		}
	}
	if uint64(spans) != appends || spanRows != float64(rows) {
		t.Fatalf("%d journal.append spans carrying %g rows, want %d carrying %d", spans, spanRows, appends, rows)
	}

	// Resume with a fresh journal + observer must complete and reuse
	// the journaled rows.
	j2, err := OpenJournal(path, space)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	tel2 := NewTelemetry(nil, nil)
	opts2 := Options{
		Workers:  4,
		OnRow:    func(m *Matrix, r int) { _ = j2.AppendRow(m, r) },
		Observer: tel2,
	}
	m2, rep2, err := Resume(context.Background(), ks, space, opts2, j2.Prior())
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, rep2)
	if rep2.Skipped == 0 {
		t.Fatalf("resume reused nothing despite journaled rows: %s", rep2.Summary())
	}
	for r := range m2.Kernels {
		if !m2.RowComplete(r) {
			t.Fatalf("resumed sweep left row %d incomplete", r)
		}
	}
	if err := j2.VerifyComplete(m2.Kernels); err != nil {
		t.Fatal(err)
	}
}

// TestNopObserverOverhead compares the nil-observer hot path against a
// no-op observer; the dispatch overhead must stay under 5%. It is a
// benchmark in test clothing, so it only runs when `make bench-obs`
// (or the env var) asks for it — wall-clock assertions are too noisy
// for every `go test`.
func TestNopObserverOverhead(t *testing.T) {
	if os.Getenv("GPUSCALE_BENCH_OBS") == "" {
		t.Skip("set GPUSCALE_BENCH_OBS=1 (make bench-obs) to run the overhead gate")
	}
	ks := testKernels()
	space := hw.StudySpace()
	measure := func(o Observer) float64 {
		best := 0.0
		for i := 0; i < 3; i++ {
			r := testing.Benchmark(func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					if _, _, err := RunContext(context.Background(), ks, space, Options{Observer: o}); err != nil {
						b.Fatal(err)
					}
				}
			})
			ns := float64(r.NsPerOp())
			if best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	base := measure(nil)
	nop := measure(NopObserver{})
	ratio := nop / base
	t.Logf("nil observer %.2fms, NopObserver %.2fms, ratio %.3f", base/1e6, nop/1e6, ratio)
	if ratio > 1.05 {
		t.Errorf("no-op observer adds %.1f%% to the sweep hot path, budget is 5%%", 100*(ratio-1))
	}
}

// TestTracedSweepOverhead gates the full distributed-tracing path: a
// Telemetry observer whose sink holds a live trace writer and a
// file-backed flight recorder, under a span context, must stay within
// 10% of the nil-observer sweep on the detailed engine (tens of
// microseconds per cell) and on the round engine (a whole 891-config
// row in tens of microseconds). Events are row-grained, so their cost
// amortizes over a row however cheap its cells are; a per-cell event,
// span mint or reflective marshal would break the round case first.
// Gated like TestNopObserverOverhead: wall-clock ratios are too noisy
// for every `go test`.
func TestTracedSweepOverhead(t *testing.T) {
	if os.Getenv("GPUSCALE_BENCH_OBS") == "" {
		t.Skip("set GPUSCALE_BENCH_OBS=1 (make bench-obs) to run the overhead gate")
	}
	ks := testKernels()
	space := hw.StudySpace()
	fr, err := obs.OpenFlightRecorder(filepath.Join(t.TempDir(), "flight.ring"),
		obs.DefaultFlightSlots, obs.DefaultFlightSlotSize)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	sink := obs.NewSink(obs.NewTraceWriter(io.Discard), fr)
	// One registry outlives the sweeps, as a process's does: the
	// service, a fleet worker and gpusweep each build every sweep's
	// Telemetry over their own long-lived registry. The span context is
	// the enclosing job's or lease's, minted before the sweep starts.
	reg := obs.NewRegistry()
	sc := obs.NewSpanContext()
	for _, engine := range []Engine{Detailed, Round} {
		t.Run(engine.String(), func(t *testing.T) {
			// One timing per call; base and traced alternate so drift in
			// the machine's speed lands on both, and each keeps its best.
			measure := func(mk func() Observer) float64 {
				r := testing.Benchmark(func(b *testing.B) {
					for n := 0; n < b.N; n++ {
						var o Observer
						if mk != nil {
							o = mk()
						}
						opts := Options{Engine: engine, Observer: o}
						if _, _, err := RunContext(context.Background(), ks, space, opts); err != nil {
							b.Fatal(err)
						}
					}
				})
				return float64(r.NsPerOp())
			}
			mkTraced := func() Observer {
				tel := NewTelemetry(reg, sink)
				tel.SetSpanContext(sc)
				return tel
			}
			base, traced := math.Inf(1), math.Inf(1)
			for i := 0; i < 3; i++ {
				base = math.Min(base, measure(nil))
				traced = math.Min(traced, measure(mkTraced))
			}
			ratio := traced / base
			t.Logf("nil observer %.3fms, traced %.3fms, ratio %.3f", base/1e6, traced/1e6, ratio)
			if ratio > 1.10 {
				t.Errorf("tracing adds %.1f%% to the %s sweep, budget is 10%%", 100*(ratio-1), engine)
			}
		})
	}
}

func TestTelemetryProgressLine(t *testing.T) {
	space := testSpace(t)
	var sb lockedBuilder
	tel := NewTelemetry(nil, nil)
	tel.EmitProgress(&sb, 0)
	_, rep, err := RunContext(context.Background(), testKernels(), space, Options{Observer: tel})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.b.String()
	if !strings.Contains(out, "cells/s") {
		t.Fatalf("no progress lines emitted:\n%s", out)
	}
	final := out[strings.LastIndex(strings.TrimSpace(out), "\n")+1:]
	if !strings.Contains(out, "progress: ") {
		t.Fatalf("missing progress prefix: %q", final)
	}
	s := tel.Progress().Snapshot()
	if s.Done != uint64(rep.Cells) {
		t.Fatalf("final progress done = %d, want %d", s.Done, rep.Cells)
	}
}
