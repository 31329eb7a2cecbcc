package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpuscale/internal/fault"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/sweep"
)

// testSpec returns a small, fast job: 2 kernels x 8 configurations.
func testSpec(t *testing.T) JobSpec {
	t.Helper()
	ks := []*kernel.Kernel{
		kernel.New("s", "p", "a").Geometry(512, 256).MustBuild(),
		kernel.New("s", "p", "b").Geometry(512, 256).Compute(30000, 100).MustBuild(),
	}
	var buf bytes.Buffer
	if err := kernel.WriteAll(&buf, ks); err != nil {
		t.Fatal(err)
	}
	return JobSpec{
		Kernels: json.RawMessage(buf.Bytes()),
		Space: &hw.Space{
			CUCounts:      []int{4, 24},
			CoreClocksMHz: []float64{200, 1000},
			MemClocksMHz:  []float64{150, 1250},
		},
	}
}

// slowInjector makes every engine call sleep a few milliseconds so
// tests can catch jobs mid-flight deterministically (the delay is
// seeded, and latency faults never change results).
func slowInjector() fault.Injector {
	return fault.Injector{LatencyRate: 1, Latency: 4 * time.Millisecond, Seed: 3}
}

// waitFor polls cond every millisecond until it holds or the deadline
// lapses.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitTerminal polls a job until it settles and returns its status.
func waitTerminal(t *testing.T, s *Service, id string) JobStatus {
	t.Helper()
	var st JobStatus
	waitFor(t, 30*time.Second, "job "+id+" to settle", func() bool {
		var err error
		st, err = s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		return st.State.Terminal()
	})
	return st
}

func drain(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir, SweepWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	st, err := s.Submit("alice", testSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued || st.Kernels != 2 || st.Configs != 8 {
		t.Fatalf("submit status = %+v", st)
	}
	st = waitTerminal(t, s, st.ID)
	if st.State != StateComplete {
		t.Fatalf("state = %s (%s), want complete", st.State, st.Reason)
	}
	if st.RowsDone != 2 || st.Coverage != 1 {
		t.Fatalf("rows done %d coverage %g, want 2 and 1", st.RowsDone, st.Coverage)
	}
	if st.Summary == "" {
		t.Fatal("terminal job has no summary")
	}
	var csvBuf bytes.Buffer
	if err := s.MatrixCSV(st.ID, &csvBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csvBuf.String(), "kernel,") {
		t.Fatalf("matrix does not look like sweep CSV: %.40q", csvBuf.String())
	}
	// A finished job renders from its journal the matrix an in-process
	// run gives, and holds no rows in memory.
	spec := testSpec(t)
	res, err := spec.resolve(0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sweep.Run(res.kernels, res.space, sweep.Options{Engine: res.engine})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := m.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvBuf.Bytes(), want.Bytes()) {
		t.Fatal("served matrix differs from an in-process run")
	}
	s.mu.Lock()
	j := s.jobs[st.ID]
	s.mu.Unlock()
	j.mu.Lock()
	held := j.unjournaled != nil
	j.mu.Unlock()
	if held {
		t.Fatal("finished job still holds rows")
	}
	// Crash-only persistence: admission record, journal and terminal
	// state are all on disk, and no archive beside them.
	for _, p := range []string{s.jobPath(st.ID), s.journalPath(st.ID), s.statePath(st.ID)} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("missing %s after completion", p)
		}
	}
	if csvs, _ := filepath.Glob(filepath.Join(dir, "*.csv")); len(csvs) != 0 {
		t.Errorf("a finished job left %v", csvs)
	}
}

// TestSubmitReplySaysQueued admits jobs to idle runners: the admission
// reply is a snapshot taken before any runner can pick the job up, so
// it says queued however fast a runner starts it.
func TestSubmitReplySaysQueued(t *testing.T) {
	const jobs = 64
	s, err := New(Config{Dir: t.TempDir(), Runners: 8, MaxJobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	spec := testSpec(t)
	for i := 0; i < jobs; i++ {
		st, err := s.Submit("alice", spec)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateQueued {
			t.Fatalf("admission %d replied %s, want queued", i, st.State)
		}
	}
}

func TestQueueBoundSheds(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Runners: -1, MaxJobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit("alice", testSpec(t)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, err = s.Submit("alice", testSpec(t))
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ShedQueueFull {
		t.Fatalf("3rd submit over MaxJobs=2: %v, want queue_full shed", err)
	}
	if shed.RetryAfter <= 0 {
		t.Fatalf("shed has no Retry-After hint: %+v", shed)
	}
	if got := s.met.shed[ShedQueueFull].Value(); got != 1 {
		t.Fatalf("serve_shed_total{queue_full} = %d, want 1", got)
	}
	if got := s.met.openJobs.Value(); got != 2 {
		t.Fatalf("serve_open_jobs = %g, want 2", got)
	}
}

func TestRateLimitSheds(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	s, err := New(Config{Dir: t.TempDir(), Runners: -1, MaxJobs: 16, Rate: 1, Burst: 1, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("alice", testSpec(t)); err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit("alice", testSpec(t))
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ShedRateLimited {
		t.Fatalf("burst-exhausted submit: %v, want rate_limited shed", err)
	}
	if shed.RetryAfter <= 0 || shed.RetryAfter > time.Second {
		t.Fatalf("retry-after %v, want (0, 1s]", shed.RetryAfter)
	}
	now = now.Add(time.Second) // the bucket refills one token
	if _, err := s.Submit("alice", testSpec(t)); err != nil {
		t.Fatalf("submit after refill: %v", err)
	}
}

func TestClientCapSheds(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Runners: -1, MaxJobs: 16, ClientCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("alice", testSpec(t)); err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit("alice", testSpec(t))
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ShedClientCap {
		t.Fatalf("over-cap submit: %v, want client_cap shed", err)
	}
	// The cap is per client: bob is unaffected by alice's jobs.
	if _, err := s.Submit("bob", testSpec(t)); err != nil {
		t.Fatalf("other client's submit: %v", err)
	}
}

func TestDrainingShedsAndFlipsReadiness(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Runners: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Ready() {
		t.Fatal("fresh service not ready")
	}
	drain(t, s)
	if s.Ready() {
		t.Fatal("still ready after drain")
	}
	_, err = s.Submit("alice", testSpec(t))
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ShedDraining {
		t.Fatalf("submit while draining: %v, want draining shed", err)
	}
}

func TestCancelQueuedJobFreesItsSlot(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Runners: -1, MaxJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit("alice", testSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MatrixCSV(st.ID, &bytes.Buffer{}); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("matrix of a queued job: %v, want ErrNoSuchJob", err)
	}
	got, err := s.Cancel(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled || got.Reason != "canceled by client" {
		t.Fatalf("canceled queued job = %+v", got)
	}
	// It never ran, so it has no journal to render.
	if err := s.MatrixCSV(st.ID, &bytes.Buffer{}); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("matrix of a job with no journal: %v, want ErrNoSuchJob", err)
	}
	if _, err := os.Stat(s.statePath(st.ID)); err != nil {
		t.Fatalf("canceled job has no terminal state file: %v", err)
	}
	// The slot is free again: another submission fits under MaxJobs=1.
	if _, err := s.Submit("alice", testSpec(t)); err != nil {
		t.Fatalf("submit after cancel: %v", err)
	}
	// Canceling a terminal job is a no-op, not an error.
	if again, err := s.Cancel(st.ID); err != nil || again.State != StateCanceled {
		t.Fatalf("re-cancel = %+v, %v", again, err)
	}
}

func TestCancelRunningJobKeepsCompletedRows(t *testing.T) {
	spec := testSpec(t)
	// One slow row at a time: plenty of window to cancel mid-run.
	s, err := New(Config{Dir: t.TempDir(), SweepWorkers: 1, Injector: slowInjector()})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	st, err := s.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "first row to settle", func() bool {
		got, err := s.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return got.RowsDone >= 1
	})
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, st.ID)
	if got.State != StateCanceled || got.Reason != "canceled by client" {
		t.Fatalf("canceled running job = %+v", got)
	}
	// The archived matrix keeps the completed rows.
	var csvBuf bytes.Buffer
	if err := s.MatrixCSV(st.ID, &csvBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvBuf.String(), ",ok") {
		t.Fatal("canceled job's matrix has no completed cells")
	}
}

func TestDeadlineCancelsJob(t *testing.T) {
	spec := testSpec(t)
	spec.DeadlineMS = 20
	s, err := New(Config{Dir: t.TempDir(), SweepWorkers: 1,
		Injector: fault.Injector{LatencyRate: 1, Latency: 50 * time.Millisecond, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	st, err := s.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, st.ID)
	if got.State != StateCanceled || got.Reason != "deadline exceeded" {
		t.Fatalf("deadlined job = %+v", got)
	}
}

func TestMaxDeadlineCapsJobs(t *testing.T) {
	spec := testSpec(t)
	spec.DeadlineMS = 3600_000 // asks for an hour
	s, err := New(Config{Dir: t.TempDir(), SweepWorkers: 1, MaxDeadline: 20 * time.Millisecond,
		Injector: fault.Injector{LatencyRate: 1, Latency: 50 * time.Millisecond, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	st, err := s.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, st.ID)
	if got.State != StateCanceled || got.Reason != "deadline exceeded" {
		t.Fatalf("job over MaxDeadline = %+v", got)
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Runners: -1})
	if err != nil {
		t.Fatal(err)
	}
	good := testSpec(t)
	cases := map[string]JobSpec{
		"empty":             {},
		"suite and kernels": {Suite: "x", Kernels: good.Kernels},
		"unknown suite":     {Suite: "no-such-suite"},
		"unknown engine":    {Kernels: good.Kernels, Engine: "warp-speed"},
		"negative noise":    {Kernels: good.Kernels, Noise: -1},
		"negative deadline": {Kernels: good.Kernels, DeadlineMS: -1},
		"bad space":         {Kernels: good.Kernels, Space: &hw.Space{CUCounts: []int{0}, CoreClocksMHz: []float64{1}, MemClocksMHz: []float64{1}}},
		"empty kernel list": {Kernels: json.RawMessage("[]")},
		"garbage kernels":   {Kernels: json.RawMessage("{nope")},
	}
	for name, spec := range cases {
		_, err := s.Submit("alice", spec)
		if err == nil {
			t.Errorf("%s: accepted, want rejection", name)
			continue
		}
		var shed *ShedError
		if errors.As(err, &shed) {
			t.Errorf("%s: shed (%v), want a client error", name, err)
		}
	}
	// Rejections consume nothing: the table is still empty.
	if got := s.met.openJobs.Value(); got != 0 {
		t.Fatalf("serve_open_jobs = %g after rejections, want 0", got)
	}
	if len(s.List()) != 0 {
		t.Fatalf("rejected specs left jobs behind: %+v", s.List())
	}
}

func TestListOrdersBySubmission(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Runners: -1})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 3; i++ {
		st, err := s.Submit("alice", testSpec(t))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, st.ID)
	}
	got := s.List()
	if len(got) != 3 {
		t.Fatalf("List() has %d jobs, want 3", len(got))
	}
	for i, st := range got {
		if st.ID != want[i] {
			t.Fatalf("List()[%d] = %s, want %s", i, st.ID, want[i])
		}
	}
}

func TestSuiteSpecResolves(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Runners: -1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit("alice", JobSpec{Suite: "microbench", Space: testSpec(t).Space})
	if err != nil {
		t.Fatalf("suite submit: %v", err)
	}
	if st.Kernels == 0 {
		t.Fatal("suite resolved to zero kernels")
	}
}
