package dist

// Tests for lease batches: the rules the soaks do not pin down. A
// batch lands with one journal append and one ledger append, a torn or
// cut batch acks nothing it did not make durable, every row of a batch
// keeps its single-row verdict, batch sizes follow the reported row
// cost, and the lease protocol's waits end on the change signal.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"gpuscale/internal/durable"
	"gpuscale/internal/fault"
	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
	"gpuscale/internal/sweep"
)

// tearable wraps a journal's writer so a test can tear its appends on
// demand: while armed, every write goes through a torn-write injector.
type tearable struct {
	armed bool
}

func (tw *tearable) wrap(w io.Writer) io.Writer {
	torn := fault.Injector{TornWriteRate: 1, Seed: 5}.WrapWriter(w)
	return writerFunc(func(b []byte) (int, error) {
		if tw.armed {
			return torn.Write(b)
		}
		return w.Write(b)
	})
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(b []byte) (int, error) { return f(b) }

// leaseRows grants worker n one-row leases (the job's cost is unknown,
// so every batch is one row).
func leaseRows(t *testing.T, c *Coordinator, worker string, n int) []*Lease {
	t.Helper()
	var ls []*Lease
	for i := 0; i < n; i++ {
		l, err := first(c.acquire(acq(worker)))
		if err != nil || l == nil {
			t.Fatalf("acquire %d for %s: %+v %v", i, worker, l, err)
		}
		ls = append(ls, l)
	}
	return ls
}

// batchOf is one complete carrying every lease's OK row; the leases
// are one job's.
func batchOf(t *testing.T, worker string, ls []*Lease) completeRequest {
	t.Helper()
	req := completeRequest{Worker: worker, Job: ls[0].Job}
	for _, l := range ls {
		req.Rows = append(req.Rows, okRow(t, l))
	}
	return req
}

// ledgerKinds counts a ledger's records by kind.
func ledgerKinds(t *testing.T, c *Coordinator) map[string]int {
	t.Helper()
	recs, err := ReadLedger(c.LedgerPath())
	if err != nil {
		t.Fatal(err)
	}
	n := map[string]int{}
	for _, r := range recs {
		n[r.Kind]++
	}
	return n
}

// TestTornBatchAppendAcksNothing: a batch whose one journal append is
// torn acks none of its rows — each is refused with a 5xx the worker
// retries — and leaves the journal at its clean prefix, the ledger
// without a complete record and the matrix untouched. The same batch
// lands whole once the disk behaves.
func TestTornBatchAppendAcksNothing(t *testing.T) {
	clk := newTestClock()
	dir := t.TempDir()
	c := newTestCoordinator(t, dir, clk)
	defer c.Close()
	job := testJob(t, "j", 3)
	tw := &tearable{}
	j, err := sweep.OpenJournalWith(journalPath(dir, job.Name), job.Space, sweep.JournalOptions{WrapWriter: tw.wrap})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	job.Journal = j
	if err := c.AddJob(job); err != nil {
		t.Fatal(err)
	}
	req := batchOf(t, "w1", leaseRows(t, c, "w1", 3))
	before, err := os.ReadFile(journalPath(dir, job.Name))
	if err != nil {
		t.Fatal(err)
	}
	appends := c.mJournalAppends.Value()

	tw.armed = true
	resp, err := c.complete(req)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Rows {
		if r.Status < http.StatusInternalServerError || !errors.Is(r.err, fault.ErrTornWrite) {
			t.Fatalf("row %d of a torn batch answered %+v (%v), want a 5xx torn-write refusal", i, r, r.err)
		}
	}
	after, err := os.ReadFile(journalPath(dir, job.Name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("the torn batch left bytes in the journal")
	}
	if st, _ := c.Status("j"); st.Done != 0 {
		t.Fatalf("a torn batch marked rows done: %+v", st)
	}
	if n := ledgerKinds(t, c)["complete"]; n != 0 {
		t.Fatalf("a torn batch ledgered %d completes", n)
	}
	if got := c.mJournalAppends.Value(); got != appends {
		t.Fatalf("a torn append was counted: %d -> %d", appends, got)
	}

	tw.armed = false
	resp, err = c.complete(req)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Rows {
		if r.err != nil || r.Duplicate {
			t.Fatalf("row %d of the retried batch: %+v %v", i, r, r.err)
		}
	}
	if got := c.mJournalAppends.Value(); got != appends+1 {
		t.Fatalf("the retried batch took %d journal appends, want 1", got-appends)
	}
	if st, _ := c.Status("j"); !st.Complete {
		t.Fatalf("the retried batch should complete the job: %+v", st)
	}
}

// TestCrashMidBatchRecoversWholeFrames: a crash during a batch's
// journal append leaves an image holding its first k whole frames and
// a torn one, and a ledger that never got the batch's complete records
// (they follow the journal's fsync). The restarted coordinator
// recovers exactly those k rows as done and leases the others again.
func TestCrashMidBatchRecoversWholeFrames(t *testing.T) {
	const rows, k = 4, 2
	clk := newTestClock()
	dir := t.TempDir()
	c := newTestCoordinator(t, dir, clk)
	job := withJournal(t, dir, testJob(t, "j", rows))
	if err := c.AddJob(job); err != nil {
		t.Fatal(err)
	}
	ls := leaseRows(t, c, "w1", rows)
	ledgerBefore, err := os.ReadFile(c.LedgerPath())
	if err != nil {
		t.Fatal(err)
	}
	journalBefore, err := os.ReadFile(journalPath(dir, job.Name))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.complete(batchOf(t, "w1", ls))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Rows {
		if r.err != nil {
			t.Fatalf("row %d: %v", i, r.err)
		}
	}
	c.Close()

	// The crash image: the batch's first k frames whole, the next one
	// cut in half; the ledger as it was before the batch.
	data, err := os.ReadFile(journalPath(dir, job.Name))
	if err != nil {
		t.Fatal(err)
	}
	off := int64(len(journalBefore))
	for i := 0; i < k; i++ {
		_, next, reason := durable.Parse(data, off)
		if reason != "" {
			t.Fatalf("frame %d of the batch: %s", i, reason)
		}
		off = next
	}
	_, next, _ := durable.Parse(data, off)
	cut := off + (next-off)/2
	if err := os.WriteFile(journalPath(dir, job.Name), data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.LedgerPath(), ledgerBefore, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := newTestCoordinator(t, dir, clk)
	defer c2.Close()
	if err := c2.AddJob(reopened(t, dir, job)); err != nil {
		t.Fatal(err)
	}
	if st, _ := c2.Status("j"); st.Done != k {
		t.Fatalf("recovered %d rows as done, want the batch's first %d", st.Done, k)
	}
	// The other rows' grants were recovered with a fresh TTL: once it
	// lapses, they and only they are leased again.
	clk.advance(2 * testTTL)
	got := map[int]bool{}
	for {
		l, err := first(c2.acquire(acq("w2")))
		if err != nil {
			t.Fatal(err)
		}
		if l == nil {
			break
		}
		got[l.Row] = true
	}
	for i, l := range ls {
		if got[l.Row] != (i >= k) {
			t.Fatalf("row %d (batch position %d) re-leased %v, want %v", l.Row, i, got[l.Row], i >= k)
		}
	}
}

// TestMixedBatchKeepsSingleRowVerdicts: one complete carrying a stolen
// epoch, a duplicate, a bad digest, a sampled row and two good rows
// gives each row the verdict a one-row complete gets, and only the good
// rows reach the journal, the ledger's completes and OnRow — through
// one journal append and one ledger append.
func TestMixedBatchKeepsSingleRowVerdicts(t *testing.T) {
	const sampled = 3
	seed := int64(-1)
	for s := int64(0); seed < 0; s++ {
		only := true
		for r := 0; r < 6; r++ {
			if verifySelected(s, r, 0.5) != (r == sampled) {
				only = false
			}
		}
		if only {
			seed = s
		}
	}
	clk := newTestClock()
	dir := t.TempDir()
	c, err := NewCoordinator(dir, CoordinatorOptions{DefaultTTL: testTTL, now: clk.now, VerifyFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	job := testJob(t, "j", 6)
	job.Seed = seed
	delivered := map[int]int{}
	job.OnRow = func(r int, journaled bool) {
		if journaled {
			delivered[r]++
		}
	}
	if err := c.AddJob(withJournal(t, dir, job)); err != nil {
		t.Fatal(err)
	}
	ls := leaseRows(t, c, "w1", 6)
	if res, err := one(c.complete(okComplete(t, ls[1], "w1"))); err != nil || res.Duplicate {
		t.Fatalf("row 1 alone: %+v %v", res, err)
	}
	// Every other lease of w1 lapses; w2 steals row 0 only.
	clk.advance(2 * testTTL)
	if l, err := first(c.acquire(acq("w2"))); err != nil || l == nil || l.Row != 0 || l.Epoch != 2 {
		t.Fatalf("w2 should steal row 0: %+v %v", l, err)
	}

	req := batchOf(t, "w1", ls)
	req.Rows[2].Digest = "0000000000000000"
	ledgerAppends, journalAppends := c.mLedgerAppends.Value(), c.mJournalAppends.Value()
	resp, err := c.complete(req)
	if err != nil {
		t.Fatal(err)
	}
	r := resp.Rows
	if r[0].err != errStale || r[0].Status != http.StatusConflict || r[0].Code != "stale-epoch" {
		t.Errorf("stolen row: %+v %v, want 409 stale-epoch", r[0], r[0].err)
	}
	if !r[1].Duplicate || r[1].err != nil {
		t.Errorf("done row: %+v %v, want a duplicate ack", r[1], r[1].err)
	}
	if !errors.Is(r[2].err, errBadAttest) || r[2].Status != http.StatusBadRequest || r[2].Code != "bad-attestation" {
		t.Errorf("bad digest: %+v %v, want 400 bad-attestation", r[2], r[2].err)
	}
	if !r[3].PendingVerify || r[3].err != nil {
		t.Errorf("sampled row: %+v %v, want a held vote", r[3], r[3].err)
	}
	for _, i := range []int{4, 5} {
		if r[i] != (rowResult{}) {
			t.Errorf("good row %d: %+v %v, want a plain accept", i, r[i], r[i].err)
		}
	}
	if got := c.mLedgerAppends.Value() - ledgerAppends; got != 1 {
		t.Errorf("the batch took %d ledger appends, want 1", got)
	}
	if got := c.mJournalAppends.Value() - journalAppends; got != 1 {
		t.Errorf("the batch took %d journal appends, want 1", got)
	}

	jm, err := sweep.ReadJournal(journalPath(dir, job.Name), job.Space)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{job.Kernels[1].Name: true, job.Kernels[4].Name: true, job.Kernels[5].Name: true}
	if len(jm.Kernels) != len(want) {
		t.Fatalf("journal holds %v, want rows 1, 4 and 5", jm.Kernels)
	}
	for _, k := range jm.Kernels {
		if !want[k] {
			t.Fatalf("journal holds %s, want rows 1, 4 and 5 only", k)
		}
	}
	recs, err := ReadLedger(c.LedgerPath())
	if err != nil {
		t.Fatal(err)
	}
	completes, attests := map[int]bool{}, map[int]bool{}
	for _, rec := range recs {
		switch rec.Kind {
		case "complete":
			completes[rec.Row] = true
		case "attest":
			attests[rec.Row] = true
		}
	}
	if len(completes) != 3 || !completes[1] || !completes[4] || !completes[5] || len(attests) != 1 || !attests[sampled] {
		t.Fatalf("ledger completes %v and attests %v, want completes 1, 4, 5 and one attest of row %d",
			completes, attests, sampled)
	}
	if _, err := AuditLedger(recs); err != nil {
		t.Fatalf("ledger audit: %v", err)
	}
	if len(delivered) != 3 || delivered[1] != 1 || delivered[4] != 1 || delivered[5] != 1 {
		t.Fatalf("OnRow saw rows %v, want 1, 4 and 5 once each", delivered)
	}
	st, _ := c.Status("j")
	if st.Done != 3 || st.Verifying != 1 {
		t.Fatalf("status after the batch: %+v", st)
	}
}

// TestBatchSizing: a job's first batch is one row; rows whose reported
// cost is above the target stay one per lease; cheap rows fill batches
// up to the cap — half an equal split of the open rows among the
// workers that leased, and a byte bound that keeps the largest batch's
// complete body far under maxBody.
func TestBatchSizing(t *testing.T) {
	clk := newTestClock()
	c := newTestCoordinator(t, t.TempDir(), clk)
	defer c.Close()
	// Jobs are granted in name order: the expensive one first.
	for _, job := range []Job{testJob(t, "a-slow", 3), testJob(t, "b-cheap", 40)} {
		if err := c.AddJob(withJournal(t, c.dir, job)); err != nil {
			t.Fatal(err)
		}
	}
	grant := func(worker string) []Lease {
		t.Helper()
		ls, err := c.acquire(acq(worker))
		if err != nil || len(ls) == 0 {
			t.Fatalf("acquire for %s: %d leases, %v", worker, len(ls), err)
		}
		return ls
	}
	report := func(worker string, ls []Lease, cost time.Duration) {
		t.Helper()
		req := completeRequest{Worker: worker, Job: ls[0].Job}
		for i := range ls {
			rc := okRow(t, &ls[i])
			rc.CostNS = cost.Nanoseconds()
			req.Rows = append(req.Rows, rc)
		}
		resp, err := c.complete(req)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range resp.Rows {
			if r.err != nil {
				t.Fatal(r.err)
			}
		}
	}

	a, b := grant("a"), grant("b")
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("first batches hold %d and %d rows, want 1 while the cost is unknown", len(a), len(b))
	}
	report("a", a, 2*batchTarget)
	report("b", b, 2*batchTarget)
	if ls := grant("a"); len(ls) != 1 {
		t.Fatalf("a batch of %d rows whose cost is above the target, want 1", len(ls))
	} else {
		report("a", ls, 2*batchTarget)
	}

	// The cheap job: its own first batch is one row again, then batches
	// fill up to the cap as the workers alternate.
	workers := []string{"a", "b"}
	for i := 0; ; i++ {
		st, _ := c.Status("b-cheap")
		open := st.Rows - st.Done - st.Leased
		if open == 0 {
			break
		}
		ls := grant(workers[i%2])
		if i == 0 && len(ls) != 1 {
			t.Fatalf("the first batch of a job with no reported cost holds %d rows, want 1", len(ls))
		}
		if cap := max(open/4, 1); i > 0 && len(ls) > cap {
			t.Fatalf("a batch of %d rows with %d open and 2 workers, want at most %d", len(ls), open, cap)
		}
		if i > 0 && open >= 8 && len(ls) < 2 {
			t.Fatalf("cheap rows leased one at a time with %d open", open)
		}
		report(workers[i%2], ls, time.Microsecond)
	}

	// The byte bound on the study's space: the largest batch's complete
	// body stays far under the maxBody a coordinator reads.
	space := hw.StudySpace()
	big := &jobState{job: Job{Space: space}, workers: map[string]bool{"a": true}, costNS: 1, costRows: 1}
	n := big.batchSize(1 << 20)
	if n < 2 {
		t.Fatalf("cheap rows on the study space batch %d rows", n)
	}
	req := completeRequest{Worker: "a", Job: "job-000000"}
	for i := 0; i < n; i++ {
		req.Rows = append(req.Rows, rowComplete{rowRef: rowRef{Row: 266, Epoch: 9, Term: 9},
			OK: true, Planes: make([]byte, sweep.PackedBytes(space.Size())), Digest: "v3:0123456789abcdef", CostNS: 1 << 40})
	}
	if body := req.encode(); len(body) > maxBody/8 {
		t.Fatalf("the largest batch of %d rows has a %d-byte complete body, want well under %d", n, len(body), maxBody)
	}
}

// TestBatchCountsScaleWithBatches: two workers run a job of many cheap
// rows; the ledger and journal appends and the replication barriers
// follow the batches, not the rows, while the per-row records and
// counters stay per row.
func TestBatchCountsScaleWithBatches(t *testing.T) {
	const rows = 40
	job := testJob(t, "counts", rows)
	want := singleNodeCanonical(t, job)
	coord := runFleet(t, job, 2, nil)
	batches := coord.mBatches.Value()
	if batches == 0 || batches > rows/2 {
		t.Fatalf("%d rows took %d grant batches, want at most %d", rows, batches, rows/2)
	}
	if g := coord.mGranted.Value(); g != rows {
		t.Fatalf("%d row grants, want %d: dist_leases_granted_total counts rows", g, rows)
	}
	// Two appends per batch (its grants, its completes) plus the term
	// record; a batch's complete may land in two calls after a retry.
	if n := coord.mLedgerAppends.Value(); n > 2*batches+2 {
		t.Fatalf("%d ledger appends for %d batches", n, batches)
	}
	if n := coord.mJournalAppends.Value(); n > batches {
		t.Fatalf("%d journal appends for %d batches", n, batches)
	}
	// One barrier per grant batch and per complete, plus AddJob's.
	if n := coord.mBarriers.Value(); n > 2*batches+1 {
		t.Fatalf("%d replication barriers for %d batches", n, batches)
	}
	kinds := ledgerKinds(t, coord)
	if kinds["grant"] != rows || kinds["complete"] != rows {
		t.Fatalf("ledger holds %d grants and %d completes, want %d of each", kinds["grant"], kinds["complete"], rows)
	}
	got, ok := completeJournal(t, coord, job.Name)
	if !ok {
		t.Fatal("job incomplete")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("batched fleet journal differs from a single-node run")
	}
}

// TestLongPollAcquireWakesOnChange: an acquire that finds no work waits
// on the change signal, so a worker already waiting gets a newly added
// job's first row as AddJob lands, not after an idle poll; and Run
// returns as its last row is accepted. What proves the wake is a
// deadline no timer can meet, not a latency bound: the waiting
// acquire's only timer fires at its long-poll deadline, longPoll after
// the coordinator received it, so an answer carrying the new job's row
// before the acquire's start + longPoll came from the change signal.
// Run waits on nothing but the signal (it has no timer at all), so it
// must return within longPoll of the last accept.
func TestLongPollAcquireWakesOnChange(t *testing.T) {
	clk := newTestClock()
	dir := t.TempDir()
	c := newTestCoordinator(t, dir, clk)
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	w, err := NewWorker(WorkerOptions{Name: "w1", Peers: []string{srv.URL}, Client: srv.Client()})
	if err != nil {
		t.Fatal(err)
	}

	type acquired struct {
		leases []Lease
		err    error
		at     time.Time
	}
	got := make(chan acquired, 1)
	sent := time.Now()
	go func() {
		ls, err := w.acquire(context.Background())
		got <- acquired{ls, err, time.Now()}
	}()
	time.Sleep(100 * time.Millisecond) // the acquire is waiting by now
	select {
	case a := <-got:
		t.Fatalf("an acquire with no job answered at once: %d leases, %v", len(a.leases), a.err)
	default:
	}
	job := withJournal(t, dir, testJob(t, "j", 1))
	done := runInBackground(t, context.Background(), c, job)
	a := <-got
	if a.err != nil || len(a.leases) != 1 {
		t.Fatalf("the waiting acquire got %d leases, %v; want the new job's row", len(a.leases), a.err)
	}
	if d := a.at.Sub(sent); d >= longPoll {
		t.Fatalf("the waiting acquire answered %v after it was sent, not before its %v long-poll deadline: no change signal woke it", d, longPoll)
	}

	if _, err := one(c.complete(okComplete(t, &a.leases[0], "w1"))); err != nil {
		t.Fatal(err)
	}
	accepted := time.Now()
	res := <-done
	if res.err != nil || !res.rep.Complete() {
		t.Fatalf("Run = %v", res.err)
	}
	if d := res.at.Sub(accepted); d > longPoll {
		t.Fatalf("Run returned %v after the last accept, want within %v", d, longPoll)
	}

	// With nothing left, an acquire waits out the long-poll and answers
	// nothing.
	start := time.Now()
	if ls, err := w.acquire(context.Background()); err != nil || len(ls) != 0 {
		t.Fatalf("acquire with no work: %d leases, %v", len(ls), err)
	}
	if d := time.Since(start); d < longPoll/2 {
		t.Fatalf("an acquire with no work answered after %v, want a long-poll", d)
	}
}

// TestWorkerHonoursFaultRates: a worker's engine fault rates reach its
// row sweeps. With every cell failing and no retries, the worker
// reports its rows not-OK, so the coordinator requeues them and
// nothing lands.
func TestWorkerHonoursFaultRates(t *testing.T) {
	clk := newTestClock()
	dir := t.TempDir()
	c := newTestCoordinator(t, dir, clk)
	defer c.Close()
	if err := c.AddJob(withJournal(t, dir, testJob(t, "j", 2))); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	w, err := NewWorker(WorkerOptions{Name: "faulty", Peers: []string{srv.URL}, Client: srv.Client(),
		SweepWorkers: 1, Fault: fault.Injector{ErrorRate: 1, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		w.Run(ctx)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for c.mRequeued.Value() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-stopped
	if n := c.mRequeued.Value(); n < 2 {
		t.Fatalf("%d rows requeued, want the faulty worker's rows reported not-OK", n)
	}
	if st, _ := c.Status("j"); st.Done != 0 {
		t.Fatalf("rows landed from a worker whose every cell failed: %+v", st)
	}
	if n := ledgerKinds(t, c)["complete"]; n != 0 {
		t.Fatalf("%d complete records from a worker whose every cell failed", n)
	}
}

// TestStandbyTailsRightAfterSync: a standby that has just synced its
// snapshot tails at once instead of pausing for its poll interval. The
// primary's barriers wait for a standby only while it tails, so a
// pause after the sync was a window in which the primary acked grants
// and completes the standby did not hold, and the backlog then came
// in one large tail.
func TestStandbyTailsRightAfterSync(t *testing.T) {
	c, err := NewCoordinator(t.TempDir(), CoordinatorOptions{DefaultTTL: testTTL})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	s, err := NewStandby(t.TempDir(), StandbyOptions{Primary: srv.URL, PollEvery: time.Minute, PromoteAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		s.Run(ctx)
	}()
	defer func() { cancel(); <-stopped }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.repl.mu.Lock()
		attached := c.repl.attached
		c.repl.mu.Unlock()
		if attached {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the standby never tailed after its sync")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTailBoundsBytes: a standby that fell behind by 50 journal
// appends of about 100 KB each catches up over several tails. Every
// tail answer stays within maxTailBytes plus one message, every tail
// lands in one replica-journal append, and the replica ends up with the
// primary's journal and ledger byte for byte.
func TestTailBoundsBytes(t *testing.T) {
	clk := newTestClock()
	c, _, s := newHAPair(t, clk, CoordinatorOptions{})
	var answered atomic.Int64
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.Handler().ServeHTTP(countingWriter{w, &answered}, r)
	}))
	defer counting.Close()
	s.o.Primary = counting.URL
	const msgs, rowsPerMsg = 50, 7
	job := testJob(t, "wide", msgs*rowsPerMsg)
	job.Space = hw.StudySpace()
	job = withJournal(t, c.dir, job)
	if err := c.AddJob(job); err != nil {
		t.Fatal(err)
	}
	syncStandby(t, s)
	n := job.Space.Size()
	tput, timeNS, bound := make([]float64, n), make([]float64, n), make([]gcn.Bound, n)
	for i := range tput {
		tput[i], timeNS[i] = 1+float64(i), 2+float64(i)
	}
	largest := 0
	for m := 0; m < msgs; m++ {
		var recs []sweep.RowRecord
		for _, k := range job.Kernels[m*rowsPerMsg : (m+1)*rowsPerMsg] {
			rec, err := sweep.EncodePlanes(k.Name, tput, timeNS, bound)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec)
		}
		framed, err := job.Journal.AppendRecord(recs...)
		if err != nil {
			t.Fatal(err)
		}
		largest = max(largest, len(framed))
		c.repl.publish(appendMsg("wide.journal", framed))
	}
	cursor := func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.cursor
	}
	tails := 0
	for ; cursor() < c.repl.latest(); tails++ {
		answered.Store(0)
		before := s.mJournalApps.Value()
		if err := s.tailOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := answered.Load(); got > maxTailBytes+int64(largest) {
			t.Fatalf("tail %d answered %d bytes, want at most %d plus one %d-byte message", tails, got, maxTailBytes, largest)
		}
		if apps := s.mJournalApps.Value() - before; apps != 1 {
			t.Fatalf("tail %d landed in %d replica-journal appends, want 1", tails, apps)
		}
	}
	if min := msgs * largest / maxTailBytes; tails < min {
		t.Fatalf("the standby caught up in %d tails, want at least %d", tails, min)
	}
	for primary, replica := range map[string]string{journalPath(c.dir, "wide"): journalPath(s.dir, "wide"),
		c.LedgerPath(): s.ledgerPath()} {
		want, _ := os.ReadFile(primary)
		if got, err := os.ReadFile(replica); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("replica %s holds %d bytes (%v), the primary's %d", replica, len(got), err, len(want))
		}
	}
}

// countingWriter counts the bytes a handler answers.
type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w countingWriter) Write(b []byte) (int, error) {
	w.n.Add(int64(len(b)))
	return w.ResponseWriter.Write(b)
}
