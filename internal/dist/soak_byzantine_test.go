package dist

// The byzantine chaos soak: a fleet with lying workers must still
// produce a canonical journal byte-identical to a single-node run.
//
// The cast: one "liar" whose fault injector corrupts every row it
// computes (wire payload and attested digest consistently wrong, so
// only independent re-execution can expose it), one worker running a
// stale protocol version, two honest workers, and a coordinator that
// crashes and restarts mid-soak after the quarantine lands. The soak
// asserts the integrity plane end to end:
//
//   - the stale worker is fenced with ErrVersionFenced before
//     computing anything, and never joins the metrics federation,
//   - the liar's lies on sampled rows lose the re-verification vote;
//     the liar is quarantined (ErrQuarantined), its unverified rows
//     are invalidated, and healthy workers re-execute every one,
//   - quarantine membership, open votes and strikes survive the
//     coordinator crash,
//   - the job journal, the job's matrix, is byte-identical to the
//     single-node run,
//   - the ledger audit passes and names the quarantine, the strikes,
//     and every one of the liar's corrupt rows,
//   - /metrics/fleet pins the quarantined worker's scrape to 0, and
//     the coordinator trace carries the quarantine instant.
//
// Runs short by default; GPUSCALE_SOAK_MS extends the convergence
// budget and GPUSCALE_FAULT_SEED replays a failure.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"gpuscale/internal/fault"
	"gpuscale/internal/kernel"
	"gpuscale/internal/obs"
)

// byzTTL is the soak coordinators' lease TTL, deliberately generous:
// the single-voter revote grace opens at 2xTTL, and the soak must prove
// rows settle by independent agreement, not by the liar waiting out
// its own grace window.
const byzTTL = 2 * time.Second

// byzJob builds the soak job.
func byzJob(t *testing.T, seed int64) Job {
	t.Helper()
	var ks []*kernel.Kernel
	for i := 0; i < 6; i++ {
		ks = append(ks, kernel.New("byz", "p", fmt.Sprintf("k%02d", i)).
			Geometry(64+64*i, 256).Compute(10000+3000*i, 100).MustBuild())
	}
	return Job{Name: "byz", Kernels: ks, Space: testSpace(t), Seed: seed, NoiseStdDev: 0.05}
}

// byzJobSeed finds a job seed whose 50% verification sample covers at
// least two of the six rows and skips at least one — so the soak
// exercises both the vote path (sampled lies) and the invalidation
// path (unsampled lies retracted at quarantine), deterministically.
func byzJobSeed(t *testing.T) int64 {
	t.Helper()
	for s := int64(1); s < 10000; s++ {
		sampled := 0
		for r := 0; r < 6; r++ {
			if verifySelected(s, r, 0.5) {
				sampled++
			}
		}
		if sampled >= 2 && sampled <= 4 {
			return s
		}
	}
	t.Fatal("no job seed with a mixed verification sample in range")
	return 0
}

// byzWorker is one in-process fleet worker plus the channel its Run
// error lands on.
type byzWorker struct {
	w    *Worker
	done chan error
}

func spawnByzWorker(t *testing.T, ctx context.Context, url, name string, in fault.Injector) *byzWorker {
	t.Helper()
	reg := obs.NewRegistry()
	reg.Counter("worker_alive", "liveness marker").Add(1)
	msrv := httptest.NewServer(obs.Handler(reg, nil))
	t.Cleanup(msrv.Close)
	w, err := NewWorker(WorkerOptions{
		Name: name, Peers: []string{url},
		Client:       &http.Client{Timeout: 10 * time.Second},
		SweepWorkers: 2, Retries: 2,
		MetricsURL: msrv.URL + "/metrics", Fault: in,
	})
	if err != nil {
		t.Fatal(err)
	}
	bw := &byzWorker{w: w, done: make(chan error, 1)}
	go func() {
		bw.done <- w.Run(ctx)
	}()
	return bw
}

// waitErr blocks for the worker's terminal Run error.
func (bw *byzWorker) waitErr(t *testing.T, what string, timeout time.Duration) error {
	t.Helper()
	select {
	case err := <-bw.done:
		return err
	case <-time.After(timeout):
		t.Fatalf("%s: worker still running after %v", what, timeout)
		return nil
	}
}

func TestChaosSoakByzantine(t *testing.T) {
	if testing.Short() {
		t.Skip("byzantine soak skipped in -short mode")
	}
	seed := time.Now().UnixNano()
	if s, err := strconv.ParseInt(os.Getenv("GPUSCALE_FAULT_SEED"), 10, 64); err == nil {
		seed = s
	}
	// Always printed so a CI failure is reproducible with
	// GPUSCALE_FAULT_SEED.
	t.Logf("byzantine seed: %d (replay with GPUSCALE_FAULT_SEED=%d)", seed, seed)

	budget := 60 * time.Second
	if ms, err := strconv.Atoi(os.Getenv("GPUSCALE_SOAK_MS")); err == nil && ms > 0 {
		budget += time.Duration(ms) * time.Millisecond
	}

	job := byzJob(t, byzJobSeed(t))
	rows := len(job.Kernels)
	want := singleNodeCanonical(t, job)
	root := t.TempDir()
	coordDir := root + "/coord"

	// The federation and the trace buffer outlive coordinator crashes,
	// the way gpuscaled's would not — which is exactly why quarantine
	// membership must come back from the ledger, not from them.
	fed := obs.NewFederation(nil, nil)
	var traceBuf bytes.Buffer
	tw := obs.NewTraceWriter(&traceBuf)
	tw.SetProcess("coordinator")
	opts := CoordinatorOptions{DefaultTTL: byzTTL, VerifyFraction: 0.5, Sink: obs.NewSink(tw, nil),
		OnWorker: fed.SetTarget, OnQuarantine: fed.Depart}

	p := startCoordWith(t, coordDir, "127.0.0.1:0", opts, job)
	addr := p.addr
	url := "http://" + addr
	defer func() { p.crash() }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Phase 1: the liar runs alone and claims every row — sampled rows
	// become held votes, unsampled rows are accepted on its word.
	liar := spawnByzWorker(t, ctx, url, "liar", fault.Injector{CorruptRowRate: 1, Seed: seed})
	phase1 := time.Now().Add(budget)
	for {
		st, ok := p.coord.Status(job.Name)
		if ok && st.Done+st.Verifying == rows {
			if st.Done == 0 || st.Verifying == 0 {
				t.Fatalf("seed search promised a mixed sample, got %+v (seed %d)", st, seed)
			}
			t.Logf("liar claimed all rows: %d accepted unverified, %d held for verification",
				st.Done, st.Verifying)
			break
		}
		if time.Now().After(phase1) {
			t.Fatalf("liar never claimed every row: %+v (seed %d)", st, seed)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Phase 2: a mixed-version worker is fenced before computing
	// anything.
	stale := spawnByzWorker(t, ctx, url, "stale", fault.Injector{StaleVersion: "gpuscale-dist/0-ancient"})
	if err := stale.waitErr(t, "stale worker", 30*time.Second); !errors.Is(err, ErrVersionFenced) {
		t.Fatalf("stale worker should exit ErrVersionFenced, got %v (seed %d)", err, seed)
	}

	// Phase 3: honest workers join. The first sampled row they settle
	// proves the liar's vote a lie — strike, quarantine, and the
	// liar's unverified rows are retracted for re-execution. The liar
	// itself learns on its next acquire.
	h1 := spawnByzWorker(t, ctx, url, "h1", fault.Injector{})
	h2 := spawnByzWorker(t, ctx, url, "h2", fault.Injector{})
	if err := liar.waitErr(t, "liar", budget); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("liar should exit ErrQuarantined, got %v (seed %d)", err, seed)
	}
	if q := quarantinedWorkers(p.coord); len(q) != 1 || q[0] != "liar" {
		t.Fatalf("quarantine roster %v (seed %d)", q, seed)
	}

	// Phase 4: the coordinator crashes mid-recovery and restarts from
	// its ledger; the honest workers ride it out, and the quarantine
	// must come back from disk.
	p.crash()
	p = startCoordWith(t, coordDir, addr, opts, job)
	if q := quarantinedWorkers(p.coord); len(q) != 1 || q[0] != "liar" {
		t.Fatalf("quarantine lost across coordinator crash: %v (seed %d)", q, seed)
	}

	deadline := time.Now().Add(budget)
	for {
		if st, ok := p.coord.Status(job.Name); ok && st.Complete {
			break
		}
		if time.Now().After(deadline) {
			st, _ := p.coord.Status(job.Name)
			t.Fatalf("fleet never converged past the liar: %+v (seed %d)", st, seed)
		}
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	for _, w := range []*byzWorker{h1, h2} {
		if err := w.waitErr(t, "honest worker", 30*time.Second); err != nil {
			t.Fatalf("honest worker exited with %v (seed %d)", err, seed)
		}
	}

	// 1. Byte-identity: the job journal matches the single-node run
	// despite six corrupt completions.
	got, ok := completeJournal(t, p.coord, job.Name)
	if !ok {
		t.Fatalf("complete job must be registered (seed %d)", seed)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("job journal differs from single-node run (seed %d)", seed)
	}

	// 2. The ledger audit passes and names the whole story: the
	// quarantine with its triggering row, at least one strike, and —
	// via the liar's attest/complete/invalidate records — every row
	// the liar corrupted.
	recs, err := ReadLedger(p.coord.LedgerPath())
	if err != nil {
		t.Fatal(err)
	}
	audit, err := AuditLedger(recs)
	if err != nil {
		t.Fatalf("ledger audit: %v (seed %d)", err, seed)
	}
	if len(audit.Quarantines) != 1 || audit.Quarantines[0].Worker != "liar" ||
		audit.Quarantines[0].Digest == "" {
		t.Fatalf("audit should name the liar's quarantine with its triggering claim: %+v (seed %d)",
			audit.Quarantines, seed)
	}
	if len(audit.Strikes) == 0 {
		t.Fatalf("audit should carry the liar's strikes (seed %d)", seed)
	}
	if len(audit.Invalidations) == 0 {
		t.Fatalf("the liar's unverified rows were never invalidated (seed %d)", seed)
	}
	corrupt := map[int]bool{}
	for _, r := range recs {
		if r.Worker != "liar" {
			continue
		}
		switch r.Kind {
		case "attest", "complete", "invalidate":
			corrupt[r.Row] = true
		}
	}
	if len(corrupt) != rows {
		t.Fatalf("ledger names %d of the liar's %d corrupt rows (seed %d)", len(corrupt), rows, seed)
	}

	// 3. /metrics/fleet: the quarantined worker is pinned down, never
	// scraped; the fenced stale worker never joined; honest workers
	// scrape up.
	var fleet bytes.Buffer
	if err := fed.WriteFleet(context.Background(), &fleet); err != nil {
		t.Fatal(err)
	}
	page := fleet.String()
	for _, wantLine := range []string{
		`fleet_scrape_up{worker="liar"} 0`,
		`fleet_scrape_up{worker="h1"} 1`,
		`fleet_scrape_up{worker="h2"} 1`,
	} {
		if !strings.Contains(page, wantLine) {
			t.Fatalf("fleet page missing %q (seed %d):\n%s", wantLine, seed, page)
		}
	}
	if strings.Contains(page, `worker="stale"`) {
		t.Fatalf("version-fenced worker leaked into the federation (seed %d):\n%s", seed, page)
	}

	// 4. The coordinator trace carries the quarantine instant and at
	// least one verified complete, so the stitched view can tell the
	// story.
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sawQuarantine, sawVerified := false, false
	for _, e := range evs {
		if e.Name == "quarantine" {
			if w, _ := e.Args["worker"].(string); w == "liar" {
				sawQuarantine = true
			}
		}
		if e.Name == "complete" {
			if v, _ := e.Args["verified"].(bool); v {
				sawVerified = true
			}
		}
	}
	if !sawQuarantine || !sawVerified {
		t.Fatalf("trace missing quarantine=%v / verified complete=%v (seed %d)",
			sawQuarantine, sawVerified, seed)
	}
}
