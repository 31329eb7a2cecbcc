package dist

// The multi-process chaos soak: the PR's headline deliverable.
//
// Workers run as real child processes (this test binary re-exec'd
// with GPUSCALE_DIST_WORKER=1) and die by SIGKILL; the coordinator is
// crashed by abruptly closing its listener, ledger and job journal and
// resuming a fresh Coordinator from the same directory, with the
// journal reopened at the same path, on the same address. Worker HTTP
// clients run under injected network faults (dropped responses,
// duplicated deliveries, seeded delays). The soak asserts the
// protocol's whole contract afterwards:
//
//   - every row completed exactly once (ledger audit + one journal
//     record per kernel),
//   - the coordinator's matrix and the job journal are byte-identical
//     to a single-node run of the same job,
//   - no lease was ever held by two live epochs (grant[n+1] starts at
//     or after grant[n]'s recorded expiry).
//
// Runs short by default; GPUSCALE_SOAK_MS extends the chaos window
// and GPUSCALE_FAULT_SEED replays a failure.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"gpuscale/internal/fault"
	"gpuscale/internal/kernel"
	"gpuscale/internal/sweep"
)

func TestMain(m *testing.M) {
	if os.Getenv("GPUSCALE_DIST_WORKER") == "1" {
		os.Exit(workerMain())
	}
	os.Exit(m.Run())
}

// workerMain is the child-process entry: a fleet worker with a
// fault-injected transport, running until SIGKILLed.
func workerMain() int {
	seed, _ := strconv.ParseInt(os.Getenv("GPUSCALE_DIST_FAULT_SEED"), 10, 64)
	in := fault.Injector{
		DropResponseRate: 0.10, DuplicateRate: 0.10, DelayRate: 0.20,
		Delay: 2 * time.Millisecond, Seed: seed,
	}
	// The failover soak additionally severs links: seeded partition
	// windows (symmetric and one-way) on the worker's transport.
	if rate, err := strconv.ParseFloat(os.Getenv("GPUSCALE_DIST_PARTITION_RATE"), 64); err == nil && rate > 0 {
		in.PartitionRate = rate
		in.PartitionFor = 150 * time.Millisecond
	}
	// GPUSCALE_DIST_PEERS lists every coordinator (primary + standbys)
	// comma separated; the worker rotates through them on error. Without
	// it the worker knows only GPUSCALE_DIST_URL.
	list := os.Getenv("GPUSCALE_DIST_PEERS")
	if list == "" {
		list = os.Getenv("GPUSCALE_DIST_URL")
	}
	var peers []string
	for _, p := range strings.Split(list, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	w, err := NewWorker(WorkerOptions{
		Name:         os.Getenv("GPUSCALE_DIST_NAME"),
		Peers:        peers,
		Client:       &http.Client{Transport: in.WrapTransport(nil), Timeout: 10 * time.Second},
		SweepWorkers: 2, Retries: 2, IdleSleep: 10 * time.Millisecond,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		return 1
	}
	w.Run(context.Background())
	return 0
}

// soakTTL is the soak coordinators' lease TTL: short, so leases a
// killed worker held are stolen within the soak.
const soakTTL = 500 * time.Millisecond

// soakJob is bigger than the unit-test jobs so crashes land mid-sweep.
func soakJob(t *testing.T) Job {
	t.Helper()
	var ks []*kernel.Kernel
	for i := 0; i < 8; i++ {
		ks = append(ks, kernel.New("soak", "p", fmt.Sprintf("k%02d", i)).
			Geometry(64+64*i, 256).Compute(10000+3000*i, 100).MustBuild())
	}
	return Job{Name: "soak", Kernels: ks, Space: testSpace(t), Seed: 7, NoiseStdDev: 0.05}
}

// coordProc is the crashable coordinator: listener + server + state,
// all torn down and rebuilt on the same address from the same dir.
// job carries the journal the incarnation opened.
type coordProc struct {
	dir   string
	addr  string
	job   Job
	coord *Coordinator
	srv   *http.Server
	ln    net.Listener
}

func startCoord(t *testing.T, dir, addr string, job Job) *coordProc {
	t.Helper()
	return startCoordWith(t, dir, addr, job, CoordinatorOptions{DefaultTTL: soakTTL})
}

// startCoordWith is startCoord with explicit coordinator options —
// the byzantine soak wires the integrity plane (verification
// fraction, federation hooks, traces) through here.
func startCoordWith(t *testing.T, dir, addr string, job Job, opts CoordinatorOptions) *coordProc {
	t.Helper()
	c, err := NewCoordinator(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The job's owner opens its journal, as a restarted gpuscaled does.
	if job.Journal, err = sweep.OpenJournal(journalPath(dir, job.Name), job.Space); err != nil {
		c.Close()
		t.Fatal(err)
	}
	if err := c.AddJob(job); err != nil {
		c.Close()
		job.Journal.Close()
		t.Fatal(err)
	}
	var ln net.Listener
	// The previous incarnation's socket may take a moment to release.
	for i := 0; ; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 200 {
			c.Close()
			job.Journal.Close()
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv := &http.Server{Handler: c.Handler()}
	go srv.Serve(ln)
	return &coordProc{dir: dir, addr: ln.Addr().String(), job: job, coord: c, srv: srv, ln: ln}
}

// crash tears the incarnation down without ceremony.
func (p *coordProc) crash() {
	p.ln.Close()
	p.srv.Close()
	p.coord.Close()
	p.job.Journal.Close()
}

// workerProc is one child worker.
type workerProc struct {
	cmd  *exec.Cmd
	name string
}

func spawnWorker(t *testing.T, url, name string, faultSeed int64, extraEnv ...string) *workerProc {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"GPUSCALE_DIST_WORKER=1",
		"GPUSCALE_DIST_URL="+url,
		"GPUSCALE_DIST_NAME="+name,
		"GPUSCALE_DIST_FAULT_SEED="+strconv.FormatInt(faultSeed, 10),
	)
	cmd.Env = append(cmd.Env, extraEnv...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawning worker %s: %v", name, err)
	}
	return &workerProc{cmd: cmd, name: name}
}

func (w *workerProc) kill() {
	w.cmd.Process.Signal(syscall.SIGKILL)
	w.cmd.Wait()
}

func TestChaosSoakDistributed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process soak skipped in -short mode")
	}
	seed := time.Now().UnixNano()
	if s, err := strconv.ParseInt(os.Getenv("GPUSCALE_FAULT_SEED"), 10, 64); err == nil {
		seed = s
	}
	// Always printed so a CI failure is reproducible with
	// GPUSCALE_FAULT_SEED.
	t.Logf("chaos seed: %d (replay with GPUSCALE_FAULT_SEED=%d)", seed, seed)
	rng := rand.New(rand.NewSource(seed))

	chaosWindow := 2 * time.Second
	if ms, err := strconv.Atoi(os.Getenv("GPUSCALE_SOAK_MS")); err == nil && ms > 0 {
		chaosWindow = time.Duration(ms) * time.Millisecond
	}

	job := soakJob(t)
	want := singleNodeCanonical(t, job)
	root := t.TempDir()
	coordDir := root + "/coord"

	p := startCoord(t, coordDir, "127.0.0.1:0", job)
	addr := p.addr
	url := "http://" + addr

	const nWorkers = 3
	workers := make([]*workerProc, nWorkers)
	respawns := 0
	for i := range workers {
		workers[i] = spawnWorker(t, url, fmt.Sprintf("w%d", i), seed+int64(i))
	}
	defer func() {
		for _, w := range workers {
			w.kill()
		}
		p.crash()
	}()

	complete := func() bool {
		st, ok := p.coord.Status(job.Name)
		return ok && st.Complete
	}

	// Chaos window: kill workers and the coordinator at random while
	// the sweep runs.
	coordCrashes, workerKills := 0, 0
	chaosEnd := time.Now().Add(chaosWindow)
	for time.Now().Before(chaosEnd) && !complete() {
		time.Sleep(time.Duration(50+rng.Intn(120)) * time.Millisecond)
		if rng.Intn(4) == 0 {
			// Coordinator crash: everything not fsynced is gone.
			p.crash()
			coordCrashes++
			p = startCoord(t, coordDir, addr, job)
		} else {
			i := rng.Intn(nWorkers)
			workers[i].kill()
			workerKills++
			respawns++
			workers[i] = spawnWorker(t, url, fmt.Sprintf("w%d", i), seed+int64(1000*respawns+i))
		}
	}
	t.Logf("chaos: %d coordinator crashes, %d worker kills", coordCrashes, workerKills)

	// Quiescence: no more crashes; the fleet must converge.
	deadline := time.Now().Add(90 * time.Second)
	for !complete() {
		if time.Now().After(deadline) {
			st, _ := p.coord.Status(job.Name)
			t.Fatalf("fleet never converged after chaos: %+v (seed %d)", st, seed)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, w := range workers {
		w.kill()
	}

	// 1. Byte-identity: coordinator matrix == single-node run.
	m, ok := p.coord.Matrix(job.Name)
	if !ok {
		t.Fatalf("complete job must expose its matrix (seed %d)", seed)
	}
	got, err := sweep.CanonicalJournalBytes(m, m.Kernels)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("coordinator matrix differs from single-node run (seed %d)", seed)
	}

	// 2. Exactly-once at the byte level: the job journal holds
	// magic + space + exactly one record per kernel row, and re-reads
	// to the same canonical bytes.
	raw, err := os.ReadFile(journalPath(coordDir, job.Name))
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(raw, []byte{'\n'}); lines != 2+len(job.Kernels) {
		t.Fatalf("job journal has %d lines, want %d — a row completed twice (seed %d)",
			lines, 2+len(job.Kernels), seed)
	}
	jm, err := sweep.ReadJournal(journalPath(coordDir, job.Name), job.Space)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := sweep.CanonicalJournalBytes(jm, m.Kernels)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, jb) {
		t.Fatalf("job journal differs from single-node run (seed %d)", seed)
	}

	// 3. Lease-protocol audit: epochs monotonic, no two live epochs,
	// at most one complete per row — and exactly one actually landed.
	recs, err := ReadLedger(p.coord.LedgerPath())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AuditLedger(recs); err != nil {
		t.Fatalf("ledger audit: %v (seed %d)", err, seed)
	}
	completes := 0
	for _, r := range recs {
		if r.Kind == "complete" {
			completes++
		}
	}
	if completes != len(job.Kernels) {
		t.Fatalf("want %d ledger completes, got %d (seed %d)", len(job.Kernels), completes, seed)
	}
}
