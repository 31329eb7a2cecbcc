package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gpuscale/internal/sweep"
)

// sweepFleet is a Fleet whose sweeps run fn and which keeps every
// record the service replicates, by path.
type sweepFleet struct {
	fn func(ctx context.Context, req SweepRequest) (*sweep.RunReport, error)

	mu      sync.Mutex
	paths   []string
	records map[string][]byte
}

func (f *sweepFleet) RunSweep(ctx context.Context, req SweepRequest) (*sweep.RunReport, error) {
	return f.fn(ctx, req)
}

func (f *sweepFleet) Replicate(path string, data []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.records == nil {
		f.records = map[string][]byte{}
	}
	f.paths = append(f.paths, path)
	f.records[path] = data
}

// replicated returns the paths handed to Replicate so far, in order.
func (f *sweepFleet) replicated() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.paths...)
}

// standIn is a stand-in distributed executor: it runs the sweep
// locally, but through the request's parameters and hooks only —
// resuming from req.Journal's Prior, appending each settled row to
// req.Journal and then telling req.OnRow it is journaled, exactly what
// a distributed coordinator does. Its sweeps inject no faults, so
// every row is complete.
func standIn(ctx context.Context, t *testing.T, req SweepRequest) (*sweep.RunReport, error) {
	_, rep, err := sweep.Resume(ctx, req.Kernels, req.Space, sweep.Options{
		Workers: 2, Engine: req.Engine, Seed: req.Seed,
		NoiseStdDev: req.Noise, OnRow: func(m *sweep.Matrix, r int) {
			if err := req.Journal.AppendRow(m, r); err != nil {
				t.Error(err)
				return
			}
			req.OnRow(r, true)
		},
	}, req.Journal.Prior())
	return rep, err
}

// TestRunSweepSeam: a Fleet's RunSweep receives the resolved
// job, its open journal and the OnRow hook, and an executor that
// journals each row and drives OnRow keeps the service's journal,
// row accounts and terminal bookkeeping exactly as the local path
// would.
func TestRunSweepSeam(t *testing.T) {
	var (
		gotJob string
		calls  int
	)
	cfg := Config{Dir: t.TempDir(), SweepWorkers: 2}
	cfg.Fleet = &sweepFleet{fn: func(ctx context.Context, req SweepRequest) (*sweep.RunReport, error) {
		calls++
		gotJob = req.JobID
		if req.Journal == nil || req.OnRow == nil {
			t.Error("SweepRequest lacks its journal or OnRow; the seam cannot keep the job durable")
			return nil, errors.New("incomplete SweepRequest")
		}
		return standIn(ctx, t, req)
	}}
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
	// OnRow drove the accounts: rows and coverage are fully accounted.
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

// TestRunSweepSeamResumesFromJournal: the journal a Fleet's RunSweep
// appends to is the one the job resumes from. A job interrupted by a
// shutdown after k journaled rows hands the next process's RunSweep a
// req.Journal whose Prior holds exactly those k rows.
func TestRunSweepSeamResumesFromJournal(t *testing.T) {
	const k = 1
	cfg := Config{Dir: t.TempDir(), SweepWorkers: 1}
	var first *sweep.Matrix
	cfg.Fleet = &sweepFleet{fn: func(ctx context.Context, req SweepRequest) (*sweep.RunReport, error) {
		m, err := sweep.Run(req.Kernels, req.Space, sweep.Options{
			Workers: 1, Engine: req.Engine, Seed: req.Seed, NoiseStdDev: req.Noise})
		if err != nil {
			return nil, err
		}
		for r := 0; r < k; r++ {
			if err := req.Journal.AppendRow(m, r); err != nil {
				return nil, err
			}
			req.OnRow(r, true)
		}
		first = m
		<-ctx.Done() // interrupted before the other rows land
		return nil, ctx.Err()
	}}
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
	cfg.Fleet = &sweepFleet{fn: func(ctx context.Context, req SweepRequest) (*sweep.RunReport, error) {
		prior = req.Journal.Prior()
		return standIn(ctx, t, req)
	}}
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

// TestFleetReplicatesRecords: a Fleet is handed each record the
// service writes, byte for byte — the admission record before the
// submission is answered, the terminal record before the terminal
// state shows — and, after a restart, every record the service
// recovers and a finished job's journal, by name alone. A running
// job's journal is the fleet's to replicate, so it is not handed over
// before the restart.
func TestFleetReplicatesRecords(t *testing.T) {
	dir := t.TempDir()
	fl := &sweepFleet{}
	var s *Service
	fl.fn = func(ctx context.Context, req SweepRequest) (*sweep.RunReport, error) {
		if got := fl.replicated(); len(got) != 1 || got[0] != s.jobPath(req.JobID) {
			t.Errorf("records replicated before the sweep = %v, want the admission record alone", got)
		}
		return standIn(ctx, t, req)
	}
	s, err := New(Config{Dir: dir, SweepWorkers: 2, Fleet: fl})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit("alice", testSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := fl.replicated(); len(got) < 1 || got[0] != s.jobPath(st.ID) {
		t.Fatalf("the 202 came before the admission record replicated: %v", got)
	}
	if waitTerminal(t, s, st.ID).State != StateComplete {
		t.Fatal("job did not complete")
	}
	drain(t, s)
	want := []string{s.jobPath(st.ID), s.statePath(st.ID)}
	if got := fl.replicated(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replicated %v, want %v", got, want)
	}
	for _, path := range want {
		disk, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(disk, fl.records[path]) {
			t.Fatalf("%s replicated %q, disk holds %q (%v)", path, fl.records[path], disk, err)
		}
	}

	again := &sweepFleet{fn: fl.fn}
	s2, err := New(Config{Dir: dir, SweepWorkers: 2, Fleet: again})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, s2)
	want = append(want, s.journalPath(st.ID))
	if got := again.replicated(); !reflect.DeepEqual(got, want) {
		t.Fatalf("a restart replicated %v, want the recovered records and journal %v", got, want)
	}
	for _, path := range want {
		if again.records[path] != nil {
			t.Fatalf("a restart handed over %s's bytes, want its name alone", path)
		}
	}
}

// TestFleetRefusesRetries: a service whose sweeps run on a fleet
// answers a job's retries field 400 at admission, naming the field and
// the workers' -retries, while a node keeps the field. A job journaled
// with the field before still recovers and completes on the fleet.
func TestFleetRefusesRetries(t *testing.T) {
	spec := testSpec(t)
	spec.Retries = 2
	node, err := New(Config{Dir: t.TempDir(), SweepWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, node)
	st, err := node.Submit("alice", spec)
	if err != nil {
		t.Fatalf("a node refused the retries field: %v", err)
	}
	if got := waitTerminal(t, node, st.ID); got.State != StateComplete {
		t.Fatalf("node job = %+v", got)
	}
	// The node's admission record is what a fleet later recovers.
	dir := t.TempDir()
	jf, err := os.ReadFile(node.jobPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir+"/"+st.ID+".job", jf, 0o644); err != nil {
		t.Fatal(err)
	}

	fleet, err := New(Config{Dir: dir, SweepWorkers: 2, Fleet: &sweepFleet{fn: func(ctx context.Context, req SweepRequest) (*sweep.RunReport, error) {
		return standIn(ctx, t, req)
	}}})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, fleet)
	if got := waitTerminal(t, fleet, st.ID); got.State != StateComplete {
		t.Fatalf("a journaled job with retries did not resume on the fleet: %+v", got)
	}
	if _, err := fleet.Submit("alice", spec); err == nil || !strings.Contains(err.Error(), "retries") ||
		!strings.Contains(err.Error(), "-retries") {
		t.Fatalf("fleet admission of a job with retries = %v, want a refusal naming the field and -retries", err)
	}
	ts := httptest.NewServer(fleet.Handler())
	defer ts.Close()
	res, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"suite":"microbench","retries":1}`))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("fleet POST with retries = %d, want 400", res.StatusCode)
	}
	spec.Retries = 0
	if _, err := fleet.Submit("alice", spec); err != nil {
		t.Fatalf("fleet refused a job without retries: %v", err)
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
