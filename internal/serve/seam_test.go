package serve

import (
	"context"
	"errors"
	"reflect"
	"strconv"
	"testing"
	"time"

	"gpuscale/internal/sweep"
)

// standIn is a stand-in distributed executor: it runs the sweep
// locally, but through the request's parameters and hooks only —
// resuming from req.Journal's Prior, appending each settled row to
// req.Journal and then calling req.OnRow, exactly what a distributed
// coordinator does.
func standIn(ctx context.Context, t *testing.T, req SweepRequest) (*sweep.Matrix, *sweep.RunReport, error) {
	return sweep.Resume(ctx, req.Kernels, req.Space, sweep.Options{
		Workers: 2, Engine: req.Engine, Seed: req.Seed,
		NoiseStdDev: req.Noise, OnRow: func(m *sweep.Matrix, r int) {
			if err := req.Journal.AppendRow(m, r); err != nil {
				t.Error(err)
				return
			}
			req.OnRow(m, r)
		},
	}, req.Journal.Prior())
}

// TestRunSweepSeam: a Config.RunSweep override receives the resolved
// job, its open journal and the OnRow hook, and an executor that
// journals each row and drives OnRow keeps the service's journal,
// snapshot and terminal bookkeeping exactly as the local path would.
func TestRunSweepSeam(t *testing.T) {
	var (
		gotJob string
		calls  int
	)
	cfg := Config{Dir: t.TempDir(), SweepWorkers: 2}
	cfg.RunSweep = func(ctx context.Context, req SweepRequest) (*sweep.Matrix, *sweep.RunReport, error) {
		calls++
		gotJob = req.JobID
		if req.Journal == nil || req.OnRow == nil {
			t.Error("SweepRequest lacks its journal or OnRow; the seam cannot keep the job durable")
			return nil, nil, errors.New("incomplete SweepRequest")
		}
		return standIn(ctx, t, req)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)

	st, err := s.Submit("alice", testSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, s, st.ID)
	if st.State != StateComplete {
		t.Fatalf("state = %s (%s), want complete", st.State, st.Reason)
	}
	if calls != 1 || gotJob != st.ID {
		t.Fatalf("RunSweep calls=%d job=%q, want 1 call for %q", calls, gotJob, st.ID)
	}
	// OnRow drove the snapshot: rows and coverage are fully accounted.
	if st.RowsDone != 2 || st.Coverage != 1 {
		t.Fatalf("rows done %d coverage %g, want 2 and 1", st.RowsDone, st.Coverage)
	}
	// ...and the executor's appends landed in the job's journal: the
	// crash-only record is on disk even though the service never
	// called the local executor itself.
	spec := testSpec(t)
	res, err := spec.resolve(0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sweep.ReadJournal(s.journalPath(st.ID), res.space)
	if err != nil || m == nil || len(m.Kernels) != 2 {
		t.Fatalf("job journal after a seam-run job: %v", err)
	}
}

// TestRunSweepSeamResumesFromJournal: the journal a RunSweep executor
// appends to is the one the job resumes from. A job interrupted by a
// shutdown after k journaled rows hands the next process's RunSweep a
// req.Journal whose Prior holds exactly those k rows.
func TestRunSweepSeamResumesFromJournal(t *testing.T) {
	const k = 1
	cfg := Config{Dir: t.TempDir(), SweepWorkers: 1}
	var first *sweep.Matrix
	cfg.RunSweep = func(ctx context.Context, req SweepRequest) (*sweep.Matrix, *sweep.RunReport, error) {
		m, err := sweep.Run(req.Kernels, req.Space, sweep.Options{
			Workers: 1, Engine: req.Engine, Seed: req.Seed, NoiseStdDev: req.Noise})
		if err != nil {
			return nil, nil, err
		}
		for r := 0; r < k; r++ {
			if err := req.Journal.AppendRow(m, r); err != nil {
				return nil, nil, err
			}
			req.OnRow(m, r)
		}
		first = m
		<-ctx.Done() // interrupted before the other rows land
		return m, nil, ctx.Err()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit("alice", testSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "the first rows to land", func() bool {
		got, err := s.Get(st.ID)
		return err == nil && got.RowsDone == k
	})
	drain(t, s)
	if got, _ := s.Get(st.ID); got.State.Terminal() {
		t.Fatalf("an interrupted job settled %s", got.State)
	}

	var prior *sweep.Matrix
	cfg.RunSweep = func(ctx context.Context, req SweepRequest) (*sweep.Matrix, *sweep.RunReport, error) {
		prior = req.Journal.Prior()
		return standIn(ctx, t, req)
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, s2, st.ID); got.State != StateComplete {
		t.Fatalf("resumed job state = %s (%s), want complete", got.State, got.Reason)
	}
	drain(t, s2)
	if prior == nil || len(prior.Kernels) != k {
		t.Fatalf("resumed RunSweep's journal Prior = %v, want the %d journaled rows", prior, k)
	}
	for r := 0; r < k; r++ {
		pr := prior.Row(first.Kernels[r])
		if pr < 0 || !prior.RowComplete(pr) ||
			!reflect.DeepEqual(prior.Throughput[pr], first.Throughput[r]) ||
			!reflect.DeepEqual(prior.TimeNS[pr], first.TimeNS[r]) ||
			!reflect.DeepEqual(prior.Bound[pr], first.Bound[r]) {
			t.Fatalf("Prior row for %s is not the journaled row", first.Kernels[r])
		}
	}
}

// TestRetryAfterJitterBounds: the jittered hint never undercuts the
// unjittered value, never exceeds it by more than 50% (plus the
// round-up second), and actually spreads.
func TestRetryAfterJitterBounds(t *testing.T) {
	const base = 10 * time.Second
	seen := make(map[int]bool)
	for i := 0; i < 2000; i++ {
		n, err := strconv.Atoi(jitterRetryAfter(base))
		if err != nil {
			t.Fatal(err)
		}
		if n < 10 || n > 15 {
			t.Fatalf("jittered Retry-After %d outside [10, 15] for base %s", n, base)
		}
		seen[n] = true
	}
	if len(seen) < 3 {
		t.Fatalf("jitter produced only %d distinct hints over 2000 draws; the herd stays a herd", len(seen))
	}
	// Sub-second hints floor to one second before jittering.
	for i := 0; i < 200; i++ {
		n, err := strconv.Atoi(jitterRetryAfter(10 * time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		if n < 1 || n > 2 {
			t.Fatalf("floored Retry-After %d outside [1, 2]", n)
		}
	}
}
