package main

// End-to-end fleet test: one run() in -coordinator mode, two run()s in
// -worker mode joined to it, a job submitted over real HTTP and
// completed entirely by leased rows, then everything shuts down
// cleanly.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpuscale/internal/dist"
	"gpuscale/internal/durable"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/serve"
	"gpuscale/internal/sweep"
)

func TestDaemonFleetMode(t *testing.T) {
	dir := t.TempDir()
	co := cliOptions{
		addr:        "127.0.0.1:0",
		stateDir:    dir + "/coord",
		runners:     1,
		maxJobs:     4,
		burst:       4,
		drainGrace:  2 * time.Second,
		coordinator: true,
		leaseTTL:    5 * time.Second,
		traceOut:    dir + "/fleet.trace",
	}
	ready := make(chan string, 1)
	co.ready = func(baseURL string) { ready <- baseURL }

	ctx, cancel := context.WithCancel(context.Background())
	coordErr := make(chan error, 1)
	go func() { coordErr <- run(ctx, co) }()

	var base string
	select {
	case base = <-ready:
	case err := <-coordErr:
		t.Fatalf("coordinator exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator never became ready")
	}

	// Two workers join the fleet under their own lifecycle.
	wctx, wcancel := context.WithCancel(context.Background())
	workerErr := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wo := cliOptions{
			worker:     true,
			join:       base,
			stateDir:   dir + "/w" + string(rune('0'+i)),
			workers:    2,
			workerName: "w" + string(rune('0'+i)),
		}
		go func() { workerErr <- run(wctx, wo) }()
	}

	// Submit a job; only the fleet can complete it — the coordinator
	// process runs no local executor in -coordinator mode.
	body := `{"suite":"microbench","space":{"cus":[4,24],"core_mhz":[200,1000],"mem_mhz":[150,1250]}}`
	res, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit = %d %+v", res.StatusCode, st)
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		res, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if st.State == "complete" {
			break
		}
		if st.State == "failed" || st.State == "canceled" {
			t.Fatalf("fleet job settled %q", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet job never completed; last state %q", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The matrix downloads as usual — clients cannot tell a fleet ran it.
	res, err = http.Get(base + "/v1/jobs/" + st.ID + "/matrix")
	if err != nil {
		t.Fatal(err)
	}
	csv, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK || !strings.HasPrefix(string(csv), "kernel,") {
		t.Fatalf("matrix = %d %.40q", res.StatusCode, csv)
	}

	// One journal per job on the primary: serve's, which the
	// coordinator appended the fleet's rows to.
	want := filepath.Join(co.stateDir, st.ID+".journal")
	if journals := journalsUnder(t, co.stateDir); len(journals) != 1 || journals[0] != want {
		t.Fatalf("coordinator state holds journals %v, want only %s", journals, want)
	}

	// Lease-protocol metrics ride the shared /metrics endpoint.
	res, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if !strings.Contains(string(metrics), "dist_rows_completed_total") {
		t.Fatalf("metrics missing lease counters:\n%.400s", metrics)
	}

	// Workers stop on their signal; the coordinator drains with exit 0.
	wcancel()
	for i := 0; i < 2; i++ {
		select {
		case err := <-workerErr:
			if err != nil {
				t.Fatalf("worker exit = %v, want nil", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("worker never stopped")
		}
	}
	// Workers are stateless: a finished row lives only in the job's
	// journal on the primary.
	for i := 0; i < 2; i++ {
		if journals := journalsUnder(t, dir+"/w"+string(rune('0'+i))); len(journals) != 0 {
			t.Fatalf("worker w%d state holds journals %v", i, journals)
		}
	}
	cancel()
	select {
	case err := <-coordErr:
		if err != nil {
			t.Fatalf("coordinator drain exit = %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator never drained")
	}

	// -trace-out captured the lease lifecycle for sweeptrace.
	trace, err := os.ReadFile(co.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(trace), `"lease"`) || !strings.Contains(string(trace), `"complete"`) {
		t.Fatalf("trace missing lease lifecycle events:\n%.400s", trace)
	}
}

// journalsUnder lists every *.journal file below dir.
func journalsUnder(t *testing.T, dir string) []string {
	t.Helper()
	var journals []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, ".journal") {
			journals = append(journals, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return journals
}

// TestFleetRetractedRowRendersCanceled: a fleet job restarts with a row
// its journal holds and its lease ledger retracted (a quarantined
// worker's complete, retracted before the crash). Registration hands
// the row to serve all-canceled, so the job counts it unmeasured, and,
// canceled before the row is re-run, answers it canceled in /matrix —
// live and, from its terminal record, after a restart — never with the
// retracted record's values.
func TestFleetRetractedRowRendersCanceled(t *testing.T) {
	dir := t.TempDir()
	ks := []*kernel.Kernel{
		kernel.New("rt", "p", "a").Geometry(512, 256).MustBuild(),
		kernel.New("rt", "p", "b").Geometry(512, 256).Compute(30000, 100).MustBuild(),
	}
	space, err := hw.NewSpace([]int{4, 24}, []float64{200, 1000}, []float64{150, 1250})
	if err != nil {
		t.Fatal(err)
	}
	var kb bytes.Buffer
	if err := kernel.WriteAll(&kb, ks); err != nil {
		t.Fatal(err)
	}
	s0, err := serve.New(serve.Config{Dir: dir, Runners: -1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s0.Submit("alice", serve.JobSpec{Kernels: kb.Bytes(), Space: &space, Noise: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s0.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	m, _, err := sweep.RunContext(context.Background(), ks, space, sweep.Options{NoiseStdDev: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	j, err := sweep.OpenJournal(filepath.Join(dir, st.ID+".journal"), space)
	if err != nil {
		t.Fatal(err)
	}
	for r := range ks {
		if err := j.AppendRow(m, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	digest, err := sweep.RowDigest(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(dist.LedgerRecord{Kind: "invalidate", Job: st.ID, Row: 0, Worker: "liar", Digest: digest})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "dist"), 0o755); err != nil {
		t.Fatal(err)
	}
	ledger := append([]byte("gpuscale-lease v1\n"), durable.Frame(rec)...)
	if err := os.WriteFile(filepath.Join(dir, "dist", "lease.ledger"), ledger, 0o644); err != nil {
		t.Fatal(err)
	}
	m.SettleRow(0, sweep.StatusCanceled)
	var want bytes.Buffer
	if err := m.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	matrix := func(s *serve.Service) []byte {
		var b bytes.Buffer
		if err := s.MatrixCSV(st.ID, &b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}

	// No worker joins, so the retracted row is never re-run.
	coord, err := dist.NewCoordinator(filepath.Join(dir, "dist"), dist.CoordinatorOptions{DefaultTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	svc, err := serve.New(serve.Config{Dir: dir, Fleet: fleet{coord}})
	if err != nil {
		t.Fatal(err)
	}
	await(t, "the job to register with the coordinator", func() bool {
		_, ok := coord.Status(st.ID)
		return ok
	})
	if got, _ := svc.Get(st.ID); got.State != serve.StateRunning || got.RowsDone != 2 || got.Coverage != 0.5 {
		t.Fatalf("job with a retracted row = %+v, want running, 2 rows done, coverage 0.5", got)
	}
	if got := matrix(svc); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("running job's matrix renders the retracted record:\n%s", got)
	}
	if _, err := svc.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	await(t, "the job to settle", func() bool {
		got, _ := svc.Get(st.ID)
		return got.State == serve.StateCanceled
	})
	if got := matrix(svc); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("canceled job's matrix renders the retracted record:\n%s", got)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	again, err := serve.New(serve.Config{Dir: dir, Runners: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := matrix(again); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("canceled job's matrix after a restart renders the retracted record:\n%s", got)
	}
}
