package main

// End-to-end failover through the job API: a -coordinator primary runs
// as a child process (this test binary, re-executed as the daemon), a
// -standby and two workers run in process. The primary is SIGKILLed
// with one job complete, one mid-sweep and one queued behind it, and
// the promoted standby answers all three through /v1/jobs.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/sweep"
)

func TestMain(m *testing.M) {
	if os.Getenv("GPUSCALED_TEST_DAEMON") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is a gpuscaled child process.
type daemon struct {
	cmd  *exec.Cmd
	log  string
	done chan struct{}
}

// startDaemon runs gpuscaled with args in a child process, its output
// in log.
func startDaemon(t *testing.T, log string, args ...string) *daemon {
	t.Helper()
	f, err := os.Create(log)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GPUSCALED_TEST_DAEMON=1")
	cmd.Stdout, cmd.Stderr = f, f
	dieWithTest(cmd)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, log: log, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		f.Close()
		close(d.done)
	}()
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGKILL)
		<-d.done
	})
	return d
}

// exitCode waits for the daemon to exit on its own.
func (d *daemon) exitCode(t *testing.T) int {
	t.Helper()
	select {
	case <-d.done:
		return d.cmd.ProcessState.ExitCode()
	case <-time.After(60 * time.Second):
		t.Fatalf("daemon never exited; its log:\n%s", tail(d.log))
		return 0
	}
}

func tail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 3000 {
		b = b[len(b)-3000:]
	}
	return string(b)
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// getJSON fetches url into v and returns the status code; a transport
// error reads as code 0.
func getJSON(url string, v any) int {
	res, err := http.Get(url)
	if err != nil {
		return 0
	}
	defer res.Body.Close()
	json.NewDecoder(res.Body).Decode(v)
	return res.StatusCode
}

// await polls cond until it holds.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// jobStatus is the client view the test compares across the failover.
type jobStatus struct {
	ID       string  `json:"id"`
	Client   string  `json:"client"`
	State    string  `json:"state"`
	Reason   string  `json:"reason"`
	Kernels  int     `json:"kernels"`
	Configs  int     `json:"configs"`
	RowsDone int     `json:"rows_done"`
	Coverage float64 `json:"coverage"`
	Summary  string  `json:"summary"`
	Trace    string  `json:"trace"`
}

// failoverJob is one submitted job and the matrix an in-process run
// of its spec gives.
type failoverJob struct {
	body string
	want []byte
}

func newFailoverJob(t *testing.T, prefix string, n int, seed int64) failoverJob {
	t.Helper()
	var ks []*kernel.Kernel
	for i := 0; i < n; i++ {
		ks = append(ks, kernel.New("fo", prefix, fmt.Sprintf("%s%02d", prefix, i)).
			Geometry(256+128*i, 256).Compute(10000+2000*i, 100).MustBuild())
	}
	var kb bytes.Buffer
	if err := kernel.WriteAll(&kb, ks); err != nil {
		t.Fatal(err)
	}
	space, err := hw.NewSpace([]int{4, 24}, []float64{200, 1000}, []float64{150, 1250})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"kernels": json.RawMessage(kb.Bytes()), "space": space,
		"noise": 0.05, "seed": seed})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := sweep.RunContext(context.Background(), ks, space,
		sweep.Options{Workers: 2, NoiseStdDev: 0.05, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := m.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	return failoverJob{body: string(body), want: want.Bytes()}
}

func submit(t *testing.T, base, body string) jobStatus {
	t.Helper()
	res, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil || res.StatusCode != http.StatusAccepted {
		t.Fatalf("submit to %s = %d %+v (%v)", base, res.StatusCode, st, err)
	}
	return st
}

func fetchMatrix(t *testing.T, base, id string) (int, []byte) {
	t.Helper()
	res, err := http.Get(base + "/v1/jobs/" + id + "/matrix")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, b
}

// TestFailoverAnswersThroughJobAPI: the primary dies with job A
// complete, job B part way and job C queued behind it (-runners 1).
// Until it promotes the standby answers /v1/jobs 503 not-primary; then
// it is primary at term 2, B and C complete on it with the matrices an
// in-process run gives (B reporting the rows its replica journal held
// as reused, and counting them done), A answers the status and the
// matrix bytes the primary gave (its journal and terminal record
// replicated, and they are its matrix), a new job gets the next ID,
// and the old primary, restarted over its own state next to the
// standby, exits deposed (6).
func TestFailoverAnswersThroughJobAPI(t *testing.T) {
	dir := t.TempDir()
	primaryDir, standbyDir := filepath.Join(dir, "primary"), filepath.Join(dir, "standby")
	primaryAddr, standbyAddr := freeAddr(t), freeAddr(t)
	primary, standby := "http://"+primaryAddr, "http://"+standbyAddr
	primaryArgs := []string{"-addr", primaryAddr, "-coordinator", "-state", primaryDir, "-runners", "1",
		"-lease-ttl", "2s", "-heartbeat-every", "100ms", "-peers", standby, "-worker-name", "primary"}
	p := startDaemon(t, filepath.Join(dir, "primary.log"), primaryArgs...)
	await(t, "the primary to serve", func() bool { return getJSON(primary+"/readyz", nil) == http.StatusOK })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	standbyErr := make(chan error, 1)
	go func() {
		standbyErr <- run(ctx, cliOptions{addr: standbyAddr, stateDir: standbyDir, standby: true, join: primary,
			runners: 1, maxJobs: 8, burst: 8, drainGrace: 2 * time.Second, leaseTTL: 2 * time.Second,
			heartbeatEvery: 100 * time.Millisecond, promoteAfter: time.Second, workerName: "standby"})
	}()
	await(t, "the standby to sync", func() bool {
		var st struct {
			Role string `json:"role"`
			Term uint64 `json:"term"`
		}
		return getJSON(standby+"/v1/ha/status", &st) == http.StatusOK && st.Role == "standby" && st.Term == 1
	})
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	workerErr := make(chan error, 2)
	for i := 0; i < 2; i++ {
		// Injected latency slows every cell without changing a result, so
		// the primary dies with B part way.
		wo := cliOptions{worker: true, join: primary + "," + standby, stateDir: filepath.Join(dir, fmt.Sprintf("w%d", i)),
			workers: 1, workerName: fmt.Sprintf("w%d", i), latency: 80 * time.Millisecond, latencyRate: 1,
			faultSeed: int64(i + 1)}
		go func() { workerErr <- run(wctx, wo) }()
	}

	jobA, jobB, jobC := newFailoverJob(t, "a", 2, 3), newFailoverJob(t, "b", 12, 5), newFailoverJob(t, "c", 3, 7)
	a := submit(t, primary, jobA.body)
	await(t, "job A to complete", func() bool {
		return getJSON(primary+"/v1/jobs/"+a.ID, &a) == http.StatusOK && a.State == "complete"
	})
	code, matrixA := fetchMatrix(t, primary, a.ID)
	if code != http.StatusOK || !bytes.Equal(matrixA, jobA.want) {
		t.Fatalf("job A's matrix on the primary (%d, %d bytes) differs from an in-process run (%d bytes)",
			code, len(matrixA), len(jobA.want))
	}
	b, c := submit(t, primary, jobB.body), submit(t, primary, jobC.body)
	await(t, "job B to finish a row", func() bool {
		return getJSON(primary+"/v1/jobs/"+b.ID, &b) == http.StatusOK && b.RowsDone >= 1
	})
	if getJSON(primary+"/v1/jobs/"+c.ID, &c) != http.StatusOK || b.State != "running" || c.State != "queued" {
		t.Fatalf("before the failover: B %s with %d rows, C %s; want B running, C queued", b.State, b.RowsDone, c.State)
	}
	// The standby's directory is the primary's, and neither holds an
	// archive.
	for _, name := range []string{a.ID + ".job", a.ID + ".state", a.ID + ".journal"} {
		pb, err := os.ReadFile(filepath.Join(primaryDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if sb, err := os.ReadFile(filepath.Join(standbyDir, name)); err != nil || !bytes.Equal(pb, sb) {
			t.Fatalf("standby %s is not the primary's (%v)", name, err)
		}
	}
	for _, pattern := range []string{"*.csv", "*.jobspec", "dist/*.journal"} {
		if m, _ := filepath.Glob(filepath.Join(standbyDir, pattern)); len(m) != 0 {
			t.Fatalf("the standby holds %v", m)
		}
	}
	if m, _ := filepath.Glob(filepath.Join(primaryDir, "*.csv")); len(m) != 0 {
		t.Fatalf("the primary holds %v", m)
	}
	var refusal struct {
		Code string `json:"code"`
	}
	for _, path := range []string{"/v1/jobs", "/v1/jobs/" + b.ID} {
		if code := getJSON(standby+path, &refusal); code != http.StatusServiceUnavailable || refusal.Code != "not-primary" {
			t.Fatalf("standby %s before promotion = %d %q, want 503 not-primary", path, code, refusal.Code)
		}
	}

	p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.done
	await(t, "the standby to promote", func() bool {
		var st struct {
			Role string `json:"role"`
			Term uint64 `json:"term"`
		}
		return getJSON(standby+"/v1/ha/status", &st) == http.StatusOK && st.Role == "primary" && st.Term == 2
	})
	for _, j := range []struct {
		st  *jobStatus
		job failoverJob
	}{{&b, jobB}, {&c, jobC}} {
		await(t, "job "+j.st.ID+" to complete on the promoted standby", func() bool {
			return getJSON(standby+"/v1/jobs/"+j.st.ID, j.st) == http.StatusOK && j.st.State == "complete"
		})
		if code, got := fetchMatrix(t, standby, j.st.ID); code != http.StatusOK || !bytes.Equal(got, j.job.want) {
			t.Fatalf("job %s's matrix on the promoted standby (%d, %d bytes) differs from an in-process run (%d bytes)",
				j.st.ID, code, len(got), len(j.job.want))
		}
	}
	// B resumed from its replica journal: those rows' cells are reused,
	// whole rows of them, and the workers measured the rest.
	var cells, ok, failed, canceled, quarantined, reused int
	if _, err := fmt.Sscanf(b.Summary, "%d cells: %d ok, %d failed, %d canceled, %d quarantined, %d reused",
		&cells, &ok, &failed, &canceled, &quarantined, &reused); err != nil ||
		reused == 0 || reused%b.Configs != 0 || ok+reused != cells {
		t.Fatalf("job B's report after the failover = %q (%v), want its journaled rows reused", b.Summary, err)
	}
	if b.RowsDone != b.Kernels || b.Coverage != 1 {
		t.Fatalf("job B after the failover reports %d of %d rows done, coverage %g; want all of them and 1",
			b.RowsDone, b.Kernels, b.Coverage)
	}
	var after jobStatus
	if getJSON(standby+"/v1/jobs/"+a.ID, &after) != http.StatusOK || after != a {
		t.Fatalf("job A after the failover:\n got %+v\nwant %+v", after, a)
	}
	if code, body := fetchMatrix(t, standby, a.ID); code != http.StatusOK || !bytes.Equal(body, matrixA) {
		t.Fatalf("job A's matrix after the failover = %d (%d bytes), want the primary's %d bytes", code, len(body), len(matrixA))
	}
	if d := submit(t, standby, jobC.body); d.ID <= c.ID {
		t.Fatalf("a job submitted after the failover got %s, not an ID after %s", d.ID, c.ID)
	}

	old := startDaemon(t, filepath.Join(dir, "restarted-primary.log"), primaryArgs...)
	if code := old.exitCode(t); code != 6 {
		t.Fatalf("the old primary restarted next to the promoted standby exited %d, want 6:\n%s", code, tail(old.log))
	}

	wcancel()
	for i := 0; i < 2; i++ {
		if err := <-workerErr; err != nil {
			t.Fatalf("worker exit = %v", err)
		}
	}
	cancel()
	if err := <-standbyErr; err != nil {
		t.Fatalf("promoted standby's drain = %v", err)
	}
}
