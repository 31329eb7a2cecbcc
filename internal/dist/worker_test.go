package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"gpuscale/internal/fault"
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
// job completes, then returns the coordinator and the worker journal
// paths.
func runFleet(t *testing.T, job Job, n int, clientFor func(i int) *http.Client) (*Coordinator, []string) {
	t.Helper()
	dir := t.TempDir()
	coord, err := NewCoordinator(dir+"/coord", CoordinatorOptions{})
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
	var paths []string
	for i := 0; i < n; i++ {
		client := srv.Client()
		if clientFor != nil {
			client = clientFor(i)
		}
		w, err := NewWorker(WorkerOptions{
			Name: string(rune('A' + i)), Peers: []string{srv.URL},
			Dir: dir + "/w" + string(rune('A'+i)), Client: client,
			SweepWorkers: 2, Retries: 2, IdleSleep: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, w.JournalPath(job.Name))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer w.Close()
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
	return coord, paths
}

// TestFleetMatchesSingleNode: two clean workers produce a coordinator
// journal byte-identical to the single-node run, and the merged
// worker journals agree.
func TestFleetMatchesSingleNode(t *testing.T) {
	job := testJob(t, "fleet", 4)
	want := singleNodeCanonical(t, job)

	coord, workerJournals := runFleet(t, job, 2, nil)

	m, ok := coord.Matrix(job.Name)
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

	// Merging the worker journals reproduces it again.
	merged, err := sweep.MergeJournals(job.Space, workerJournals...)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := sweep.CanonicalJournalBytes(merged, m.Kernels)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, mb) {
		t.Fatal("merged worker journals differ from single-node run")
	}

	// Render once: every framed record a worker journaled for a kernel
	// is byte-identical to the coordinator's record for that kernel, so
	// the digest the worker attested hashes exactly the bytes the
	// coordinator journaled.
	coordRecs := journalRecords(t, journalPath(coord.dir, job.Name))
	seen := map[string]bool{}
	for _, path := range workerJournals {
		for k, recs := range journalRecords(t, path) {
			for _, rec := range recs {
				if want := coordRecs[k]; len(want) != 1 || rec != want[0] {
					t.Fatalf("worker journal %s: record for %s differs from the coordinator's", path, k)
				}
			}
			seen[k] = true
		}
	}
	if len(seen) != len(job.Kernels) {
		t.Fatalf("worker journals hold %d of %d kernels", len(seen), len(job.Kernels))
	}
}

// journalRecords maps each kernel in a v2 journal file to its framed
// row records, exactly as appended ("<crc> <len> <payload>\n").
func journalRecords(t *testing.T, path string) map[string][]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("journal %s has no space record", path)
	}
	out := map[string][]string{}
	for _, line := range lines[2:] { // past the magic and the space record
		if len(line) == 0 {
			continue
		}
		fields := bytes.SplitN(line, []byte(" "), 3)
		var rec struct {
			Kernel string `json:"kernel"`
		}
		if len(fields) != 3 || json.Unmarshal(fields[2], &rec) != nil || rec.Kernel == "" {
			t.Fatalf("journal %s: unparsable row record %q", path, line)
		}
		out[rec.Kernel] = append(out[rec.Kernel], string(line))
	}
	return out
}

// TestFleetUnderNetworkFaults: dropped acks, duplicated deliveries
// and delays do not break exactly-once or byte-identity.
func TestFleetUnderNetworkFaults(t *testing.T) {
	job := testJob(t, "chaos", 5)
	want := singleNodeCanonical(t, job)

	reg := obs.NewRegistry()
	coordDir := t.TempDir()
	coord, err := NewCoordinator(coordDir, CoordinatorOptions{Metrics: reg})
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
			Dir:          t.TempDir(),
			Client:       &http.Client{Transport: in.WrapTransport(nil), Timeout: 10 * time.Second},
			SweepWorkers: 2, Retries: 2, IdleSleep: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer w.Close()
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

	m, _ := coord.Matrix(job.Name)
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

// TestWorkerServesReleasedRowFromJournal: a worker that finished a
// row but lost the lease (or the ack) serves the re-lease from its
// journal instead of recomputing.
func TestWorkerServesReleasedRowFromJournal(t *testing.T) {
	job := testJob(t, "rejournal", 1)
	dir := t.TempDir()
	coordA, err := NewCoordinator(dir+"/c", CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer coordA.Close()
	if err := coordA.AddJob(withJournal(t, coordA.dir, job)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coordA.Handler())
	defer srv.Close()

	w, err := NewWorker(WorkerOptions{Name: "W", Peers: []string{srv.URL}, Dir: dir + "/w",
		Client: srv.Client(), SweepWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	lease, err := w.acquire(context.Background())
	if err != nil || lease == nil {
		t.Fatalf("acquire: %v", err)
	}
	m1, r1, rec1, err := w.executeRow(context.Background(), lease, obs.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	// Second execution of the same lease must come from the journal:
	// identical planes, and Resume's Skipped accounting is invisible
	// here, so prove it by byte-equality of the rows.
	m2, r2, rec2, err := w.executeRow(context.Background(), lease, obs.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < job.Space.Size(); c++ {
		if m1.Throughput[r1][c] != m2.Throughput[r2][c] {
			t.Fatal("re-executed row differs from journaled row")
		}
	}
	// The journal-served row is rendered on demand into the record the
	// sweep rendered, so its attestation is unchanged.
	if d1, d2 := sweep.RecordDigest(rec1), sweep.RecordDigest(rec2); d1 != d2 {
		t.Fatalf("journal-served record digest %s, computed %s", d2, d1)
	}
}
