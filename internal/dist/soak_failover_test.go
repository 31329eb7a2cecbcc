package dist

// The coordinator-failover chaos soak: this PR's headline deliverable.
//
// The scripted disaster, end to end:
//
//  1. a primary coordinator runs a sweep with three fault-injected
//     child-process workers while a warm standby tails its lease
//     ledger over a replication link that itself suffers seeded
//     delays and partition windows;
//  2. mid-sweep — at least two rows done, the rest in flight — the
//     primary is crashed without ceremony;
//  3. the standby promotes after the missed-heartbeat deadline (its
//     replication client is still partition-prone during promotion),
//     the job is registered on it as its owner's recovery does (its
//     replica journal reopened, then AddJob), and the workers re-join
//     it through peer rotation with jittered backoff, finishing the
//     sweep under the new term — and, under worker-kill chaos, one
//     fresh job after another until the chaos window closes;
//  4. the deposed primary limps back from its own directory, probes
//     its peer list, finds a newer term live, and is fenced with
//     ErrDeposed before it can serve a single lease;
//  5. the promoted coordinator's ledger audit proves terms increased
//     monotonically with no record written under a stale term
//     (no-two-live-primaries), every row completed exactly once, and
//     every job's journal is byte-identical to a single-node run.
//
// Runs short by default; GPUSCALE_SOAK_MS extends the post-promotion
// worker-kill chaos window and GPUSCALE_FAULT_SEED replays a failure.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"gpuscale/internal/fault"
	"gpuscale/internal/kernel"
)

func TestChaosSoakFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process soak skipped in -short mode")
	}
	seed := time.Now().UnixNano()
	if s, err := strconv.ParseInt(os.Getenv("GPUSCALE_FAULT_SEED"), 10, 64); err == nil {
		seed = s
	}
	t.Logf("chaos seed: %d (replay with GPUSCALE_FAULT_SEED=%d)", seed, seed)
	rng := rand.New(rand.NewSource(seed))

	chaosWindow := 1 * time.Second
	if ms, err := strconv.Atoi(os.Getenv("GPUSCALE_SOAK_MS")); err == nil && ms > 0 {
		chaosWindow = time.Duration(ms) * time.Millisecond
	}

	// A bigger job than the other soaks: the crash must land mid-sweep
	// after the standby's cursor has caught up, so the sweep needs to
	// outlive that gate by a comfortable margin.
	job := soakJob(t)
	for i := 8; i < 16; i++ {
		job.Kernels = append(job.Kernels, kernel.New("soak", "p", fmt.Sprintf("k%02d", i)).
			Geometry(64+64*i, 256).Compute(10000+3000*i, 100).MustBuild())
	}
	want := singleNodeCanonical(t, job)
	root := t.TempDir()
	primaryDir := root + "/primary"

	p := startCoordWith(t, primaryDir, "127.0.0.1:0", CoordinatorOptions{ID: "primary-1", DefaultTTL: soakTTL}, job)
	url1 := "http://" + p.addr

	// The standby's address is bound before any worker starts so the
	// whole fleet knows both peers from birth.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url2 := "http://" + ln2.Addr().String()

	// The replication link is itself unreliable: seeded delays plus
	// partition windows, live through sync, tail, and promotion.
	repFaults := fault.Injector{
		DelayRate: 0.2, Delay: 2 * time.Millisecond,
		PartitionRate: 0.03, PartitionFor: 100 * time.Millisecond,
		Seed: seed + 7919,
	}
	sb, err := NewStandby(root+"/standby", StandbyOptions{
		ID:      "standby-1",
		Primary: url1,
		Client: &http.Client{
			Transport: repFaults.WrapTransport(nil),
			Timeout:   5 * time.Second,
		},
		PollEvery: 20 * time.Millisecond,
		// Must clear the tail long-poll window (500ms server-side) plus
		// a partition window with margin, or an idle-but-healthy
		// primary reads as silent and the standby promotes early.
		PromoteAfter: 1200 * time.Millisecond,
		Coordinator:  CoordinatorOptions{ID: "standby-1", DefaultTTL: soakTTL},
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The standby's address serves "not-primary" refusals until
	// promotion swaps the promoted coordinator's handler in — the same
	// shape gpuscaled -standby uses.
	var handler atomic.Value
	handler.Store(http.Handler(sb.Handler()))
	srv2 := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	})}
	go srv2.Serve(ln2)
	defer srv2.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	promotedCh := make(chan *Coordinator, 1)
	runErrCh := make(chan error, 1)
	go func() {
		c, err := sb.Run(ctx)
		if err != nil {
			runErrCh <- err
			return
		}
		promotedCh <- c // nil if ctx ended first
	}()

	peersEnv := []string{
		"GPUSCALE_DIST_PEERS=" + url1 + "," + url2,
		"GPUSCALE_DIST_PARTITION_RATE=0.03",
	}
	const nWorkers = 3
	workers := make([]*workerProc, nWorkers)
	respawns := 0
	for i := range workers {
		workers[i] = spawnWorker(t, url1, fmt.Sprintf("w%d", i), seed+int64(i), peersEnv...)
	}
	defer func() {
		for _, w := range workers {
			w.kill()
		}
	}()

	// Phase 1: run until the sweep is demonstrably mid-flight (at
	// least two rows done, not all), the standby has synced, and its
	// cursor covers every frame published so far — so the crash
	// leaves the replica holding everything the fleet was acked for —
	// then crash the primary, abruptly and for good.
	midSweep := func() bool {
		latest := p.coord.repl.latest()
		st, ok := p.coord.Status(job.Name)
		return ok && st.Done >= 2 && !st.Complete && sb.Status().Term > 0 &&
			sb.Status().Cursor >= latest
	}
	deadline := time.Now().Add(60 * time.Second)
	for !midSweep() {
		if time.Now().After(deadline) {
			st, _ := p.coord.Status(job.Name)
			t.Fatalf("sweep never reached mid-flight: %+v standby term %d (seed %d)",
				st, sb.Status().Term, seed)
		}
		time.Sleep(10 * time.Millisecond)
	}
	stAtCrash, _ := p.coord.Status(job.Name)
	p.crash()
	t.Logf("primary crashed at %d/%d rows done", stAtCrash.Done, stAtCrash.Rows)

	// Phase 2: the standby must notice the silence and promote itself
	// — through its own partition-prone replication client.
	var pc *Coordinator
	select {
	case pc = <-promotedCh:
		if pc == nil {
			t.Fatalf("standby run ended without promoting (seed %d)", seed)
		}
	case err := <-runErrCh:
		t.Fatalf("standby run failed: %v (seed %d)", err, seed)
	case <-time.After(60 * time.Second):
		t.Fatalf("standby never promoted after primary crash (seed %d)", seed)
	}
	defer pc.Close()
	// The ledger the standby promoted over is the primary's, byte for
	// byte, up to the last append it applied: the promoted ledger is
	// that replica and then the promoted term's record.
	promoted, err := os.ReadFile(pc.LedgerPath())
	if err != nil {
		t.Fatal(err)
	}
	primaryLedger, err := os.ReadFile(p.coord.LedgerPath())
	if err != nil {
		t.Fatal(err)
	}
	off, last := int64(len(ledgerMagic)), int64(0)
	for off < int64(len(promoted)) {
		rec, next, ok := parseLedgerRecord(promoted, off)
		if !ok || (next == int64(len(promoted)) && rec.Kind != "term") {
			t.Fatalf("the promoted ledger at byte %d: %+v, want records ending in its term's (seed %d)", off, rec, seed)
		}
		last, off = off, next
	}
	if !bytes.HasPrefix(primaryLedger, promoted[:last]) {
		t.Fatalf("the replica ledger (%d bytes) is not the primary's (%d bytes) byte for byte (seed %d)",
			last, len(primaryLedger), seed)
	}
	// Promotion registers no job: the owner recovers over the replica,
	// reopening the job's replica journal before registering it. Every
	// job registered from here on is owned the same way, in sb.dir.
	var jobs []Job
	register := func(job Job) {
		job, err := openAndAdd(pc, sb.dir, job)
		if err != nil {
			t.Fatalf("registering job %s on the promoted coordinator: %v (seed %d)", job.Name, err, seed)
		}
		t.Cleanup(func() { job.Journal.Close() })
		jobs = append(jobs, job)
	}
	register(job)
	handler.Store(http.Handler(pc.Handler()))
	t.Logf("standby promoted at term %d", pc.Term())

	// Phase 3: keep the partitioned fleet under worker-kill chaos
	// while it re-joins the promoted primary and finishes the sweep;
	// whenever the live job completes, a fresh one takes its place, so
	// the fleet has work until the window closes.
	complete := func(name string) bool {
		st, ok := pc.Status(name)
		return ok && st.Complete
	}
	start := time.Now()
	chaosEnd := start.Add(chaosWindow)
	workerKills := 0
	for time.Now().Before(chaosEnd) {
		pause := time.Now().Add(time.Duration(50+rng.Intn(120)) * time.Millisecond)
		for now := time.Now(); now.Before(pause); now = time.Now() {
			if live := jobs[len(jobs)-1]; now.Before(chaosEnd) && complete(live.Name) {
				live.Name = fmt.Sprintf("%s-%02d", job.Name, len(jobs))
				register(live)
			}
			time.Sleep(5 * time.Millisecond)
		}
		i := rng.Intn(nWorkers)
		workers[i].kill()
		workerKills++
		respawns++
		workers[i] = spawnWorker(t, url1, fmt.Sprintf("w%d", i), seed+int64(1000*respawns+i), peersEnv...)
	}
	window := time.Since(start)

	deadline = time.Now().Add(90 * time.Second)
	for _, j := range jobs {
		for !complete(j.Name) {
			if time.Now().After(deadline) {
				st, _ := pc.Status(j.Name)
				t.Fatalf("fleet never converged on the promoted primary: %+v (seed %d)", st, seed)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	for _, w := range workers {
		w.kill()
	}
	t.Logf("post-promotion chaos: %v of a %v window, %d jobs finished, %d worker kills",
		window.Round(time.Millisecond), chaosWindow, len(jobs), workerKills)

	// Phase 4: the deposed primary limps back from its own directory
	// with the standby in its peer list. The initial probe must fence
	// it with ErrDeposed before it serves anything.
	old, err := NewCoordinator(primaryDir, CoordinatorOptions{
		ID:         "primary-1",
		DefaultTTL: soakTTL,
		Peers:      []string{url2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if err := old.StartHA(ctx); !errors.Is(err, ErrDeposed) {
		t.Fatalf("deposed primary restart: want ErrDeposed from StartHA, got %v (seed %d)", err, seed)
	}
	select {
	case <-old.Deposed():
	default:
		t.Fatalf("deposed primary's Deposed channel must be closed (seed %d)", seed)
	}
	if _, err := old.acquire(acq("w-late")); !errors.Is(err, ErrDeposed) {
		t.Fatalf("deposed primary must refuse leases: %v (seed %d)", err, seed)
	}

	// Phase 5a: byte-identity and exactly-once — every job's journal
	// on the promoted side matches the single-node run exactly, with
	// one record per row, the failed-over job's across the failover.
	checkSoakJobs(t, pc, jobs, want, seed)

	// Phase 5b: the ledger that survived replication + promotion must
	// audit clean — terms strictly monotonic, every record written
	// under the term current at its position, exactly one live
	// complete per row.
	recs, err := ReadLedger(pc.LedgerPath())
	if err != nil {
		t.Fatal(err)
	}
	audit, err := AuditLedger(recs)
	if err != nil {
		t.Fatalf("promoted ledger audit: %v (seed %d)", err, seed)
	}
	if len(audit.Terms) < 2 {
		t.Fatalf("failover ledger should record both terms, got %d term records (seed %d)",
			len(audit.Terms), seed)
	}
	for i := 1; i < len(audit.Terms); i++ {
		if audit.Terms[i].Term <= audit.Terms[i-1].Term {
			t.Fatalf("terms not monotonic: %d then %d (seed %d)",
				audit.Terms[i-1].Term, audit.Terms[i].Term, seed)
		}
	}
	// The journal is the source of truth for done-ness; a ledger
	// complete is best-effort audit, and a crash that cuts replication
	// between a row's journal frame and its complete frame legally
	// loses that one record (the journal line count above is the
	// exactly-once proof). So: never MORE completes than rows, at
	// least the rows done before the crash (the cursor gate pulled
	// their frames), and work visibly landed under both terms — the
	// failover carried in-flight work rather than redoing everything.
	if rows := len(jobs) * len(job.Kernels); audit.Completes > rows {
		t.Fatalf("%d live completes for %d rows — a row completed twice (seed %d)",
			audit.Completes, rows, seed)
	}
	if audit.Completes < 2 {
		t.Fatalf("replica lost pre-crash completes: %d in ledger, %d done at crash (seed %d)",
			audit.Completes, stAtCrash.Done, seed)
	}
	oldTerm, newTerm := audit.Terms[0].Term, audit.Terms[len(audit.Terms)-1].Term
	byTerm := map[uint64]int{}
	for _, r := range recs {
		if r.Kind == "complete" {
			byTerm[r.Term]++
		}
	}
	if byTerm[oldTerm] == 0 || byTerm[newTerm] == 0 {
		t.Fatalf("completes by term %v: want work under both term %d and term %d (seed %d)",
			byTerm, oldTerm, newTerm, seed)
	}
}
