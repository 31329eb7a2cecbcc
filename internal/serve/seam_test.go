package serve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"gpuscale/internal/hw"
	"gpuscale/internal/sweep"
)

// TestRunSweepSeam: a Config.RunSweep override receives the resolved
// job and the OnRow hook, and driving OnRow keeps the service's
// journal, snapshot and terminal bookkeeping exactly as the local
// path would.
func TestRunSweepSeam(t *testing.T) {
	var (
		gotJob string
		calls  int
	)
	cfg := Config{Dir: t.TempDir(), SweepWorkers: 2}
	cfg.RunSweep = func(ctx context.Context, req SweepRequest) (*sweep.Matrix, *sweep.RunReport, error) {
		calls++
		gotJob = req.JobID
		if req.OnRow == nil {
			t.Error("SweepRequest.OnRow is nil; the seam cannot keep the journal current")
		}
		// A stand-in executor: run locally, but through the request's
		// parameters and hooks only — exactly what a distributed
		// coordinator does, rendering each row's record once.
		return sweep.Resume(ctx, req.Kernels, req.Space, sweep.Options{
			Workers: 2, Engine: req.Engine, Seed: req.Seed,
			NoiseStdDev: req.Noise, OnRow: func(m *sweep.Matrix, r int) {
				rec, err := sweep.EncodeRow(m, r)
				if err != nil {
					t.Error(err)
					return
				}
				req.OnRow(m, r, rec)
			},
		}, req.Prior)
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
	// ...and the journal: the crash-only record is on disk even though
	// the service never called the local executor itself.
	if _, err := os.Stat(s.journalPath(st.ID)); err != nil {
		t.Fatalf("missing journal after seam-run job: %v", err)
	}
}

// TestRunSweepSeamJournalsExecutorRecords: the job journal receives
// the executor's rendered records verbatim — the coordinator's bytes,
// not a second render. The stand-in executor hands OnRow records
// rendered from planes that differ from the matrix it reports (one
// cell nudged), so a journal that re-rendered the matrix would differ
// from one that appended the records; the job journal must equal a
// reference journal built by appending the same records in order.
func TestRunSweepSeamJournalsExecutorRecords(t *testing.T) {
	var (
		space hw.Space
		recs  []sweep.RowRecord
	)
	cfg := Config{Dir: t.TempDir(), SweepWorkers: 1}
	cfg.RunSweep = func(ctx context.Context, req SweepRequest) (*sweep.Matrix, *sweep.RunReport, error) {
		space = req.Space
		return sweep.Resume(ctx, req.Kernels, req.Space, sweep.Options{
			Workers: 1, Engine: req.Engine, Seed: req.Seed,
			NoiseStdDev: req.Noise, OnRow: func(m *sweep.Matrix, r int) {
				tput := append([]float64(nil), m.Throughput[r]...)
				tput[0] *= 1 + 1.0/1024
				rec, err := sweep.EncodePlanes(m.Kernels[r], tput, m.TimeNS[r], m.Bound[r])
				if err != nil {
					t.Error(err)
					return
				}
				recs = append(recs, rec)
				req.OnRow(m, r, rec)
			},
		}, req.Prior)
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
	if st = waitTerminal(t, s, st.ID); st.State != StateComplete {
		t.Fatalf("state = %s (%s), want complete", st.State, st.Reason)
	}
	if len(recs) != 2 {
		t.Fatalf("executor rendered %d records, want 2", len(recs))
	}
	ref := filepath.Join(t.TempDir(), "ref.journal")
	rj, err := sweep.OpenJournal(ref, space)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := rj.AppendRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := rj.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(s.journalPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("job journal (%d bytes) is not the executor's records (%d bytes)", len(got), len(want))
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
