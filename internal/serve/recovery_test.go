package serve

// Crash-recovery tests: the daemon dies (or drains hard) at the three
// interesting instants — after admission but before the first cell,
// mid-sweep with rows journaled, and during drain with work still
// queued — restarts on the same state directory, and must end with the
// same job table and byte-identical matrices as an uninterrupted run.

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"gpuscale/internal/fault"
)

// referenceMatrix runs spec uninterrupted in a fresh directory and
// returns the archived matrix bytes — the ground truth recovery must
// reproduce. cfg's Dir is replaced; everything else is kept so the
// execution parameters match the interrupted run exactly.
func referenceMatrix(t *testing.T, cfg Config, spec JobSpec) []byte {
	t.Helper()
	cfg.Dir = t.TempDir()
	cfg.Runners = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	st, err := s.Submit("ref", spec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, st.ID)
	if got.State != StateComplete {
		t.Fatalf("reference run = %+v", got)
	}
	var buf bytes.Buffer
	if err := s.MatrixCSV(st.ID, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func jobMatrix(t *testing.T, s *Service, id string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.MatrixCSV(id, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRecoverJobAdmittedButNeverStarted(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t)
	cfg := Config{Dir: dir, SweepWorkers: 2}
	want := referenceMatrix(t, cfg, spec)

	// "Kill" the daemon between admission and the first cell: no
	// runners ever start, so the only trace is the fsynced job file.
	killed := cfg
	killed.Dir = dir
	killed.Runners = -1
	s1, err := New(killed)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s1.journalPath(st.ID)); !os.IsNotExist(err) {
		t.Fatalf("job not yet run already has a journal (err=%v)", err)
	}
	// s1 is abandoned without drain — the crash. A new service on the
	// same directory must pick the job up and finish it.
	restarted := cfg
	restarted.Dir = dir
	restarted.Runners = 1
	s2, err := New(restarted)
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s2)
	if got := s2.met.recovered.Value(); got != 1 {
		t.Fatalf("serve_jobs_recovered_total = %d, want 1", got)
	}
	got := waitTerminal(t, s2, st.ID)
	if got.State != StateComplete {
		t.Fatalf("recovered job = %+v", got)
	}
	if !bytes.Equal(jobMatrix(t, s2, st.ID), want) {
		t.Fatal("recovered matrix differs from uninterrupted run")
	}
}

func TestRecoverJobInterruptedMidSweep(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t)
	// Latency faults slow every cell without changing any value, so the
	// interrupted and reference runs stay byte-identical.
	cfg := Config{Dir: dir, SweepWorkers: 1, Injector: slowInjector()}
	want := referenceMatrix(t, cfg, spec)

	first := cfg
	first.Dir = dir
	first.Runners = 1
	s1, err := New(first)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "a journaled row", func() bool {
		got, err := s1.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return got.RowsDone >= 1
	})
	// Hard drain: zero grace means the in-flight sweep is interrupted
	// now. Crash-only: the interrupted job writes NO terminal record.
	drain(t, s1)
	if _, err := os.Stat(s1.statePath(st.ID)); !os.IsNotExist(err) {
		t.Fatalf("interrupted job has a terminal state file (err=%v)", err)
	}
	gotMid, err := s1.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if gotMid.State.Terminal() {
		t.Fatalf("interrupted job settled terminally: %+v", gotMid)
	}
	// A crash mid-append leaves a torn frame after the journaled rows;
	// the restart must salvage past it and say so in its log.
	torn := []byte("0badf00d 4096 {\"kernel\":\"torn")
	jf, err := os.OpenFile(s1.journalPath(st.ID), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.Write(torn); err != nil {
		t.Fatal(err)
	}
	jf.Close()

	var logMu sync.Mutex
	var logs []string
	second := cfg
	second.Dir = dir
	second.Runners = 1
	second.Logf = func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	s2, err := New(second)
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s2)
	if got := s2.met.recovered.Value(); got != 1 {
		t.Fatalf("serve_jobs_recovered_total = %d, want 1", got)
	}
	got := waitTerminal(t, s2, st.ID)
	if got.State != StateComplete {
		t.Fatalf("resumed job = %+v", got)
	}
	// The journal made the resume reuse completed rows: fewer rows
	// settled in this process than the job has kernels.
	if got.RowsDone >= got.Kernels {
		t.Fatalf("resume recomputed every row (%d of %d) — journal unused", got.RowsDone, got.Kernels)
	}
	if !bytes.Equal(jobMatrix(t, s2, st.ID), want) {
		t.Fatal("resumed matrix differs from uninterrupted run")
	}
	logMu.Lock()
	defer logMu.Unlock()
	salvaged := 0
	for _, l := range logs {
		if strings.Contains(l, "salvaged") {
			salvaged++
			wantLine := fmt.Sprintf("%s: journal salvaged: dropped %d bytes (torn record at byte", st.ID, len(torn))
			if !strings.Contains(l, wantLine) {
				t.Fatalf("salvage log line %q does not contain %q", l, wantLine)
			}
		}
	}
	if salvaged != 1 {
		t.Fatalf("%d salvage log lines, want 1; log:\n%s", salvaged, strings.Join(logs, "\n"))
	}
}

func TestRecoverDrainLeavesQueuedJobsIntact(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t)
	cfg := Config{Dir: dir, SweepWorkers: 1, Runners: 1, Injector: slowInjector()}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := s1.Submit("alice", spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	waitFor(t, 10*time.Second, "first job under way", func() bool {
		got, err := s1.Get(ids[0])
		if err != nil {
			t.Fatal(err)
		}
		return got.RowsDone >= 1
	})
	drain(t, s1)
	// Nothing settled terminally: the running job was interrupted, the
	// queued ones never started.
	for _, id := range ids {
		if _, err := os.Stat(s1.statePath(id)); !os.IsNotExist(err) {
			t.Fatalf("%s has a terminal state file after drain (err=%v)", id, err)
		}
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s2)
	if got := s2.met.recovered.Value(); got != 3 {
		t.Fatalf("serve_jobs_recovered_total = %d, want 3", got)
	}
	for _, id := range ids {
		got := waitTerminal(t, s2, id)
		if got.State != StateComplete {
			t.Fatalf("%s after recovery = %+v", id, got)
		}
	}
	// Exactly one terminal record per job — none lost, none duplicated.
	for _, id := range ids {
		if _, err := os.Stat(s2.statePath(id)); err != nil {
			t.Fatalf("%s missing its terminal record: %v", id, err)
		}
	}
}

func TestRecoverNeverReRunsTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t)
	s1, err := New(Config{Dir: dir, SweepWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	first := waitTerminal(t, s1, st.ID)
	if first.State != StateComplete {
		t.Fatalf("first run = %+v", first)
	}
	drain(t, s1)
	wantMatrix, err := os.ReadFile(s1.matrixPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	wantState, err := os.ReadFile(s1.statePath(st.ID))
	if err != nil {
		t.Fatal(err)
	}

	// Restart with an injector that breaks every simulation: if the
	// terminal job were re-run, its matrix could not survive intact.
	s2, err := New(Config{Dir: dir, SweepWorkers: 2,
		Injector: fault.Injector{ErrorRate: 1, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s2)
	if got := s2.met.recovered.Value(); got != 0 {
		t.Fatalf("serve_jobs_recovered_total = %d, want 0 (job was terminal)", got)
	}
	got, err := s2.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateComplete {
		t.Fatalf("terminal job after restart = %+v", got)
	}
	// The recovered job answers the status it answered before: its
	// state record carries the settled rows and validated cells.
	if got != first {
		t.Fatalf("terminal job's status changed across restart:\n got %+v\nwant %+v", got, first)
	}
	time.Sleep(20 * time.Millisecond) // give a hypothetical re-run time to do damage
	if b, _ := os.ReadFile(s2.matrixPath(st.ID)); !bytes.Equal(b, wantMatrix) {
		t.Fatal("terminal job's matrix changed across restart")
	}
	if b, _ := os.ReadFile(s2.statePath(st.ID)); !bytes.Equal(b, wantState) {
		t.Fatal("terminal job's state record changed across restart")
	}
	// And the terminal job still serves its matrix (read back from disk).
	if !bytes.Equal(jobMatrix(t, s2, st.ID), wantMatrix) {
		t.Fatal("terminal job's served matrix differs from its archive")
	}
}

func TestRecoverOpenJobsRespectAdmissionBound(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Runners: -1, MaxJobs: 2}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s1.Submit("alice", testSpec(t)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash (no drain), restart: the recovered table fills the bound,
	// so the next submission sheds rather than exceeding it.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.met.openJobs.Value(); got != 2 {
		t.Fatalf("serve_open_jobs after recovery = %g, want 2", got)
	}
	_, err = s2.Submit("alice", testSpec(t))
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ShedQueueFull {
		t.Fatalf("submit over recovered bound: %v, want queue_full shed", err)
	}
}

// TestFailedPersistSettlesJobFailed: a job whose terminal record cannot
// be made durable settles failed with the persistence error as its
// reason, answers /matrix with a 404 and writes no state record — so
// a restart on the same directory re-enqueues it and its journal
// resumes it to complete, with the matrix an uninterrupted run gives.
func TestFailedPersistSettlesJobFailed(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t)
	cfg := Config{Dir: dir, SweepWorkers: 2}
	want := referenceMatrix(t, cfg, spec)

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A directory where the archive goes makes its rename fail.
	const id = "job-000000"
	if err := os.Mkdir(s1.matrixPath(id), 0o755); err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != id {
		t.Fatalf("first job is %s, want %s", st.ID, id)
	}
	got := waitTerminal(t, s1, id)
	if got.State != StateFailed || !strings.Contains(got.Reason, "persisting terminal state") {
		t.Fatalf("job after a failed persist = %+v, want failed with the persistence error", got)
	}
	ts := httptest.NewServer(s1.Handler())
	res, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/matrix")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	ts.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("matrix of a job with no archive = %d, want 404", res.StatusCode)
	}
	if _, err := os.Stat(s1.statePath(id)); !os.IsNotExist(err) {
		t.Fatalf("failed persist left a state record (err=%v)", err)
	}
	drain(t, s1)

	if err := os.Remove(s1.matrixPath(id)); err != nil {
		t.Fatal(err)
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s2)
	if got := s2.met.recovered.Value(); got != 1 {
		t.Fatalf("serve_jobs_recovered_total = %d, want 1", got)
	}
	got = waitTerminal(t, s2, id)
	if got.State != StateComplete {
		t.Fatalf("restarted job = %+v", got)
	}
	if !strings.Contains(got.Summary, "16 reused") {
		t.Fatalf("restarted job did not resume from its journal: %s", got.Summary)
	}
	if !bytes.Equal(jobMatrix(t, s2, id), want) {
		t.Fatal("resumed matrix differs from an uninterrupted run")
	}
}
