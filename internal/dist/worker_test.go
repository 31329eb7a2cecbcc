package dist

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gpuscale/internal/fault"
	"gpuscale/internal/hw"
	"gpuscale/internal/obs"
	"gpuscale/internal/sweep"
)

// singleNodeCanonical runs the job on one node and renders its
// canonical journal — the byte-identity baseline.
func singleNodeCanonical(t *testing.T, job Job) []byte {
	t.Helper()
	m, rep, err := sweep.RunContext(context.Background(), job.Kernels, job.Space, sweep.Options{
		Workers: 2, NoiseStdDev: job.NoiseStdDev, Seed: job.Seed, Engine: job.Engine})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("baseline incomplete: %s", rep.Summary())
	}
	var names []string
	names = append(names, m.Kernels...)
	b, err := sweep.CanonicalJournalBytes(m, names)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runFleet drives a coordinator plus n in-process workers until the
// job completes, then returns the coordinator.
func runFleet(t *testing.T, job Job, n int, clientFor func(i int) *http.Client) *Coordinator {
	t.Helper()
	dir := t.TempDir()
	coord, err := NewCoordinator(dir+"/coord", CoordinatorOptions{DefaultTTL: testTTL})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	if err := coord.AddJob(withJournal(t, coord.dir, job)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		client := srv.Client()
		if clientFor != nil {
			client = clientFor(i)
		}
		w, err := NewWorker(WorkerOptions{
			Name: string(rune('A' + i)), Peers: []string{srv.URL}, Client: client,
			SweepWorkers: 2, Retries: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	deadline := time.After(60 * time.Second)
	for {
		if st, ok := coord.Status(job.Name); ok && st.Complete {
			break
		}
		select {
		case <-deadline:
			cancel()
			wg.Wait()
			st, _ := coord.Status(job.Name)
			t.Fatalf("fleet never finished: %+v", st)
		case <-time.After(10 * time.Millisecond):
		}
	}
	cancel()
	wg.Wait()
	return coord
}

// TestFleetMatchesSingleNode: two clean workers produce a coordinator
// matrix and job journal byte-identical to the single-node run, and
// every row's attested digest hashes exactly the record the job's
// journal holds for it.
func TestFleetMatchesSingleNode(t *testing.T) {
	job := testJob(t, "fleet", 4)
	want := singleNodeCanonical(t, job)

	coord := runFleet(t, job, 2, nil)

	m, ok := completeMatrix(coord, job.Name)
	if !ok {
		t.Fatal("complete job should expose its matrix")
	}
	got, err := sweep.CanonicalJournalBytes(m, m.Kernels)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("coordinator matrix differs from single-node run")
	}

	// The job's journal, which the coordinator appended to, re-reads to
	// the same bytes.
	jm, err := sweep.ReadJournal(journalPath(coord.dir, job.Name), job.Space)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := sweep.CanonicalJournalBytes(jm, m.Kernels)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, jb) {
		t.Fatal("coordinator journal differs from single-node run")
	}

	// Render once: the digest each worker attested, which the ledger's
	// complete record keeps, is the digest of the record the job's
	// journal holds for that kernel.
	recs, err := ReadLedger(coord.LedgerPath())
	if err != nil {
		t.Fatal(err)
	}
	attested := map[int]string{}
	for _, r := range recs {
		if r.Kind == "complete" {
			attested[r.Row] = r.Digest
		}
	}
	if len(attested) != len(job.Kernels) {
		t.Fatalf("ledger attests %d of %d rows", len(attested), len(job.Kernels))
	}
	for row, k := range job.Kernels {
		rec, err := sweep.EncodeRow(jm, jm.Row(k.Name))
		if err != nil {
			t.Fatal(err)
		}
		if d := sweep.RecordDigest(rec); attested[row] != d {
			t.Fatalf("row %d (%s): attested digest %s, journal record digest %s", row, k.Name, attested[row], d)
		}
	}
}

// TestFleetUnderNetworkFaults: dropped acks, duplicated deliveries
// and delays do not break exactly-once or byte-identity.
func TestFleetUnderNetworkFaults(t *testing.T) {
	job := testJob(t, "chaos", 5)
	want := singleNodeCanonical(t, job)

	reg := obs.NewRegistry()
	coordDir := t.TempDir()
	coord, err := NewCoordinator(coordDir, CoordinatorOptions{DefaultTTL: testTTL, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.AddJob(withJournal(t, coordDir, job)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		in := fault.Injector{DropResponseRate: 0.15, DuplicateRate: 0.15, DelayRate: 0.2,
			Delay: 2 * time.Millisecond, Seed: int64(100 + i)}
		w, err := NewWorker(WorkerOptions{
			Name: string(rune('A' + i)), Peers: []string{srv.URL},
			Client:       &http.Client{Transport: in.WrapTransport(nil), Timeout: 10 * time.Second},
			SweepWorkers: 2, Retries: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	deadline := time.After(60 * time.Second)
	for {
		if st, ok := coord.Status(job.Name); ok && st.Complete {
			break
		}
		select {
		case <-deadline:
			st, _ := coord.Status(job.Name)
			t.Fatalf("chaos fleet never finished: %+v", st)
		case <-time.After(10 * time.Millisecond):
		}
	}
	cancel()
	wg.Wait()

	m, _ := completeMatrix(coord, job.Name)
	got, err := sweep.CanonicalJournalBytes(m, m.Kernels)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("chaos fleet result differs from single-node run")
	}
	recs, err := ReadLedger(coord.LedgerPath())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AuditLedger(recs); err != nil {
		t.Fatalf("ledger audit after network chaos: %v", err)
	}
	// Exactly-once at the ledger level: one complete per row.
	completes := 0
	for _, r := range recs {
		if r.Kind == "complete" {
			completes++
		}
	}
	if completes != len(job.Kernels) {
		t.Fatalf("want %d complete records, got %d", len(job.Kernels), completes)
	}
}

// TestWorkerRecomputesReleasedRow: a worker keeps no row state, so a
// row it finished but lost the lease (or the ack) for is recomputed
// when it is leased again — and the recomputation encodes the same
// record, so its attestation is unchanged.
func TestWorkerRecomputesReleasedRow(t *testing.T) {
	job := testJob(t, "recompute", 1)
	dir := t.TempDir()
	coord, err := NewCoordinator(dir, CoordinatorOptions{DefaultTTL: testTTL})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.AddJob(withJournal(t, dir, job)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	w, err := NewWorker(WorkerOptions{Name: "W", Peers: []string{srv.URL}, Client: srv.Client(), SweepWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	lease, err := first(w.acquire(context.Background()))
	if err != nil || lease == nil {
		t.Fatalf("acquire: %v", err)
	}
	rec1, err := w.executeRow(context.Background(), lease, obs.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := w.executeRow(context.Background(), lease, obs.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	if d1, d2 := sweep.RecordDigest(rec1), sweep.RecordDigest(rec2); d1 != d2 {
		t.Fatalf("recomputed row's record digest %s, first execution %s", d2, d1)
	}
}

// TestWorkerBuildsJobSpaceOnce: a worker validates a job's space once
// — hw.NewSpace builds all of the grid's configurations to check them
// — and every later row of the job reuses it, however many batches the
// rows arrive in: a second row's space costs no allocation and keeps
// the first row's axes. A lease of another space gets its own.
func TestWorkerBuildsJobSpaceOnce(t *testing.T) {
	job := testJob(t, "once", 2)
	job.Space = hw.StudySpace()
	w, err := NewWorker(WorkerOptions{Name: "W", Peers: []string{"http://127.0.0.1:1"}, SweepWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	lease := func(r int, space hw.Space) *Lease {
		k, err := encodeKernel(job.Kernels[r])
		if err != nil {
			t.Fatal(err)
		}
		return &Lease{Job: job.Name, Row: r, Epoch: 1, Kernel: k, Space: space.Clone(), Seed: job.Seed + int64(r),
			NoiseStdDev: job.NoiseStdDev, Engine: job.Engine.String()}
	}
	row0, row1 := lease(0, job.Space), lease(1, job.Space)
	if _, err := w.executeRow(context.Background(), row0, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	axes := &w.space.CUCounts[0]
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := w.leaseSpace(row1); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("the job's second row rebuilt its space: %v allocations", allocs)
	}
	if _, err := w.executeRow(context.Background(), row1, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if &w.space.CUCounts[0] != axes {
		t.Fatal("the job's second row did not reuse the first row's space")
	}
	other := lease(0, testSpace(t))
	if space, err := w.leaseSpace(other); err != nil || !space.Equal(testSpace(t)) {
		t.Fatalf("a lease of another space got %+v (%v)", space, err)
	}
}
