package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/sweep"
)

// testClock is the manual clock the lease-expiry tests advance.
type testClock struct {
	t time.Time
}

func newTestClock() *testClock { return &testClock{t: time.Unix(1000, 0)} }

func (c *testClock) now() time.Time          { return c.t }
func (c *testClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testSpace(t *testing.T) hw.Space {
	t.Helper()
	s, err := hw.NewSpace([]int{4, 44}, []float64{200, 1000}, []float64{150, 1250})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testJob(t *testing.T, name string, n int) Job {
	t.Helper()
	var ks []*kernel.Kernel
	for i := 0; i < n; i++ {
		ks = append(ks, kernel.New("s", "p", string(rune('a'+i))).Geometry(64+64*i, 256).MustBuild())
	}
	return Job{Name: name, Kernels: ks, Space: testSpace(t), Seed: 42, NoiseStdDev: 0.05}
}

// testTTL is the lease TTL of the tests' coordinators: every
// coordinator a test builds, a promoted standby's included, sets it as
// its DefaultTTL.
const testTTL = time.Second

// journalPath is where the tests keep a job's journal: in the
// coordinator's directory, next to its ledger.
func journalPath(dir, job string) string {
	return filepath.Join(dir, sanitize(job)+".journal")
}

// withJournal opens job's journal at journalPath(dir, job.Name), as
// the job's owner does before registering it, and closes it when the
// test ends.
func withJournal(t *testing.T, dir string, job Job) Job {
	t.Helper()
	j, err := sweep.OpenJournal(journalPath(dir, job.Name), job.Space)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	job.Journal = j
	return job
}

// reopened closes job's journal and opens it again at the same path,
// as a restarted owner does.
func reopened(t *testing.T, dir string, job Job) Job {
	t.Helper()
	if err := job.Journal.Close(); err != nil {
		t.Fatal(err)
	}
	return withJournal(t, dir, job)
}

func newTestCoordinator(t *testing.T, dir string, clk *testClock) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(dir, CoordinatorOptions{DefaultTTL: testTTL, now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// acq builds a handshake-passing acquire for worker.
func acq(worker string) acquireRequest {
	return acquireRequest{Worker: worker, Proto: ProtoVersion, Fingerprint: EngineFingerprint()}
}

// okComplete builds a valid OK complete for the granted lease by
// actually sweeping the leased row — the same computation a worker
// performs, so the planes pass validation, carry a truthful
// attestation, and are deterministic.
func okComplete(t *testing.T, l *Lease, worker string) completeRequest {
	t.Helper()
	k, err := l.DecodeKernel()
	if err != nil {
		t.Fatal(err)
	}
	m, err := sweep.Run([]*kernel.Kernel{k}, l.Space,
		sweep.Options{Workers: 1, NoiseStdDev: l.NoiseStdDev, Seed: l.Seed})
	if err != nil {
		t.Fatal(err)
	}
	digest, err := sweep.RowDigest(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	return completeRequest{Job: l.Job, Row: l.Row, Epoch: l.Epoch, Term: l.Term, Worker: worker, OK: true,
		Planes: packPlanes(m.Throughput[0], m.TimeNS[0], m.Bound[0]), Digest: digest}
}

func TestLeaseGrantCompleteDuplicate(t *testing.T) {
	clk := newTestClock()
	c := newTestCoordinator(t, t.TempDir(), clk)
	defer c.Close()
	if err := c.AddJob(withJournal(t, c.dir, testJob(t, "j", 2))); err != nil {
		t.Fatal(err)
	}

	l, err := c.acquire(acq("w1"))
	if err != nil || l == nil {
		t.Fatalf("acquire: %v %v", l, err)
	}
	if l.Epoch != 1 {
		t.Fatalf("first grant should be epoch 1, got %d", l.Epoch)
	}
	if l.Seed != 42+int64(l.Row) {
		t.Fatalf("lease seed %d not offset by row %d", l.Seed, l.Row)
	}

	req := okComplete(t, l, "w1")
	if resp, err := c.complete(req); err != nil || resp.Duplicate {
		t.Fatalf("first complete: %+v %v", resp, err)
	}
	// The retried complete (dropped-ack path) must be an idempotent
	// duplicate, not a double-merge.
	if resp, err := c.complete(req); err != nil || !resp.Duplicate {
		t.Fatalf("retried complete should ack as duplicate: %+v %v", resp, err)
	}

	st, ok := c.Status("j")
	if !ok || st.Done != 1 || st.Complete {
		t.Fatalf("status after one row: %+v", st)
	}
}

// TestExpiryRacesLateComplete is the fencing edge case: the original
// holder finishes after its lease expired and was stolen — the stale
// epoch must be rejected, and the thief's complete must land.
func TestExpiryRacesLateComplete(t *testing.T) {
	clk := newTestClock()
	c := newTestCoordinator(t, t.TempDir(), clk)
	defer c.Close()
	if err := c.AddJob(withJournal(t, c.dir, testJob(t, "j", 1))); err != nil {
		t.Fatal(err)
	}

	orig, err := c.acquire(acq("slow"))
	if err != nil || orig == nil {
		t.Fatalf("acquire: %v", err)
	}
	// Not expired yet: nothing to steal.
	if l, _ := c.acquire(acq("eager")); l != nil {
		t.Fatal("unexpired lease must not be re-granted")
	}
	clk.advance(2 * time.Second)
	thief, err := c.acquire(acq("thief"))
	if err != nil || thief == nil {
		t.Fatalf("steal after expiry: %v", err)
	}
	if thief.Epoch != orig.Epoch+1 {
		t.Fatalf("steal should bump epoch: %d -> %d", orig.Epoch, thief.Epoch)
	}

	// The original limps in late: fenced.
	if _, err := c.complete(okComplete(t, orig, "slow")); err != errStale {
		t.Fatalf("stale-epoch complete should be fenced, got %v", err)
	}
	// The thief's complete lands.
	if resp, err := c.complete(okComplete(t, thief, "thief")); err != nil || resp.Duplicate {
		t.Fatalf("thief complete: %+v %v", resp, err)
	}
	// Steal-then-original-finishes, other order: original retries
	// after the thief completed — idempotent duplicate, not a fence,
	// because done-ness wins.
	if resp, err := c.complete(okComplete(t, orig, "slow")); err != nil || !resp.Duplicate {
		t.Fatalf("post-done stale complete should be a duplicate ack: %+v %v", resp, err)
	}

	recs, err := ReadLedger(c.LedgerPath())
	if err != nil {
		t.Fatal(err)
	}
	audit, err := AuditLedger(recs)
	if err != nil {
		t.Fatalf("ledger audit: %v", err)
	}
	if audit.Grants["j/0"] != 2 {
		t.Fatalf("row should have exactly 2 grants, got %d", audit.Grants["j/0"])
	}
}

// TestExpiredButUnstolenCompleteAccepted: expiry alone does not fence
// — only a superseding epoch does. A slow worker whose lease ran out
// but was never re-granted still owns the newest epoch.
func TestExpiredButUnstolenCompleteAccepted(t *testing.T) {
	clk := newTestClock()
	c := newTestCoordinator(t, t.TempDir(), clk)
	defer c.Close()
	if err := c.AddJob(withJournal(t, c.dir, testJob(t, "j", 1))); err != nil {
		t.Fatal(err)
	}
	l, _ := c.acquire(acq("slow"))
	clk.advance(time.Minute)
	if resp, err := c.complete(okComplete(t, l, "slow")); err != nil || resp.Duplicate {
		t.Fatalf("expired-but-unstolen complete should be accepted: %+v %v", resp, err)
	}
}

// TestRenewalAfterCoordinatorRestart: a coordinator crash must not
// strand live workers — recovered leases keep their epoch, so the
// holder's renewals and complete still validate.
func TestRenewalAfterCoordinatorRestart(t *testing.T) {
	dir := t.TempDir()
	clk := newTestClock()
	c := newTestCoordinator(t, dir, clk)
	job := withJournal(t, dir, testJob(t, "j", 2))
	if err := c.AddJob(job); err != nil {
		t.Fatal(err)
	}
	l, err := c.acquire(acq("w1"))
	if err != nil || l == nil {
		t.Fatalf("acquire: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart from the same dir; the worker never noticed.
	clk.advance(100 * time.Millisecond)
	c2 := newTestCoordinator(t, dir, clk)
	defer c2.Close()
	if err := c2.AddJob(reopened(t, dir, job)); err != nil {
		t.Fatal(err)
	}
	resp, err := c2.renew(renewRequest{Job: l.Job, Row: l.Row, Epoch: l.Epoch, Term: l.Term, Worker: "w1"})
	if err != nil || resp.Done {
		t.Fatalf("renewal with pre-crash epoch should extend the open lease after restart: %+v %v", resp, err)
	}
	// A wrong epoch is still fenced after restart.
	if _, err := c2.renew(renewRequest{Job: l.Job, Row: l.Row, Epoch: l.Epoch + 7, Term: l.Term, Worker: "x"}); err != errStale {
		t.Fatalf("bogus epoch should be fenced, got %v", err)
	}
	if _, err := c2.complete(okComplete(t, l, "w1")); err != nil {
		t.Fatalf("complete with pre-crash epoch should land: %v", err)
	}
}

// TestRestartAfterCompleteNeverRegrants: the double-grant drill — a
// completed row must stay done across a coordinator crash.
func TestRestartAfterCompleteNeverRegrants(t *testing.T) {
	dir := t.TempDir()
	clk := newTestClock()
	c := newTestCoordinator(t, dir, clk)
	job := withJournal(t, dir, testJob(t, "j", 2))
	if err := c.AddJob(job); err != nil {
		t.Fatal(err)
	}
	l1, _ := c.acquire(acq("w1"))
	if _, err := c.complete(okComplete(t, l1, "w1")); err != nil {
		t.Fatal(err)
	}
	c.Close()

	clk.advance(time.Hour) // every lease long expired
	c2 := newTestCoordinator(t, dir, clk)
	defer c2.Close()
	if err := c2.AddJob(reopened(t, dir, job)); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for {
		l, err := c2.acquire(acq("w2"))
		if err != nil {
			t.Fatal(err)
		}
		if l == nil {
			break
		}
		if l.Row == l1.Row {
			t.Fatalf("completed row %d was re-granted after restart", l1.Row)
		}
		if seen[l.Row] {
			break
		}
		seen[l.Row] = true
	}
	st, _ := c2.Status("j")
	if st.Done != 1 {
		t.Fatalf("done-ness lost across restart: %+v", st)
	}
}

// TestNotOKCompleteRequeues: a failed row releases immediately for
// re-lease with a bumped epoch.
func TestNotOKCompleteRequeues(t *testing.T) {
	clk := newTestClock()
	c := newTestCoordinator(t, t.TempDir(), clk)
	defer c.Close()
	if err := c.AddJob(withJournal(t, c.dir, testJob(t, "j", 1))); err != nil {
		t.Fatal(err)
	}
	l, _ := c.acquire(acq("w1"))
	resp, err := c.complete(completeRequest{Job: l.Job, Row: l.Row, Epoch: l.Epoch, Term: l.Term, Worker: "w1"})
	if err != nil || !resp.Requeued {
		t.Fatalf("not-OK complete should requeue: %+v %v", resp, err)
	}
	l2, err := c.acquire(acq("w2"))
	if err != nil || l2 == nil {
		t.Fatal("requeued row should be immediately re-leasable")
	}
	if l2.Epoch != l.Epoch+1 {
		t.Fatalf("requeued grant should bump epoch: %d -> %d", l.Epoch, l2.Epoch)
	}
}

// badPlane is one way a packed plane set breaks a validation rule.
type badPlane struct {
	name   string
	planes []byte
	want   string // a fragment of the rejection
}

// badPlanes derives, from valid packed planes for an nCfg-config row,
// one case per validation rule unpackPlanes enforces: too short and
// too long a byte length; a zero, negative, NaN or infinite
// throughput; the same values for time; an out-of-range bound byte.
func badPlanes(valid []byte, nCfg int) []badPlane {
	with := func(off int, bits []byte) []byte {
		b := append([]byte(nil), valid...)
		copy(b[off:], bits)
		return b
	}
	f64 := func(v float64) []byte {
		return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))
	}
	cases := []badPlane{
		{"short", valid[:len(valid)-1], "plane length"},
		{"long", append(append([]byte(nil), valid...), 0), "plane length"},
		{"bound-out-of-range", with(16*nCfg+nCfg-1, []byte{byte(gcn.BoundLaunch) + 1}), "unknown bound"},
		{"bound-byte-max", with(16*nCfg, []byte{0xff}), "unknown bound"},
	}
	for _, v := range []struct {
		name string
		v    float64
	}{{"zero", 0}, {"negative", -1}, {"nan", math.NaN()}, {"+inf", math.Inf(1)}, {"-inf", math.Inf(-1)}} {
		// The last cell, so every earlier cell passes first.
		cases = append(cases,
			badPlane{"tput-" + v.name, with(8*(nCfg-1), f64(v.v)), "out-of-range throughput"},
			badPlane{"time-" + v.name, with(8*(2*nCfg-1), f64(v.v)), "out-of-range time"})
	}
	return cases
}

// TestCompleteValidation: garbage planes never reach the matrix. Every
// packed-plane rule rejects its case with the validation error (a 500,
// ahead of the attestation check), and the row still completes with
// valid planes afterwards.
func TestCompleteValidation(t *testing.T) {
	clk := newTestClock()
	c := newTestCoordinator(t, t.TempDir(), clk)
	defer c.Close()
	job := withJournal(t, c.dir, testJob(t, "j", 1))
	if err := c.AddJob(job); err != nil {
		t.Fatal(err)
	}
	l, _ := c.acquire(acq("w1"))
	valid := okComplete(t, l, "w1")
	for _, tc := range badPlanes(valid.Planes, job.Space.Size()) {
		req := valid
		req.Planes = tc.planes
		_, err := c.complete(req)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want a %q rejection, got %v", tc.name, tc.want, err)
		}
		if errors.Is(err, errBadAttest) {
			t.Errorf("%s: planes reached the attestation check", tc.name)
		}
	}
	if st, _ := c.Status("j"); st.Done != 0 {
		t.Fatalf("a rejected complete landed: %+v", st)
	}
	// And the row is still leasable/completable afterwards.
	if _, err := c.complete(valid); err != nil {
		t.Fatalf("valid complete after rejected ones: %v", err)
	}
}

// TestLedgerTornTailSalvage: a crash mid-append costs at most the
// unacked record.
func TestLedgerTornTailSalvage(t *testing.T) {
	dir := t.TempDir()
	clk := newTestClock()
	c := newTestCoordinator(t, dir, clk)
	job := withJournal(t, dir, testJob(t, "j", 1))
	if err := c.AddJob(job); err != nil {
		t.Fatal(err)
	}
	l, _ := c.acquire(acq("w1"))
	c.Close()

	// Tear the tail.
	f, err := os.OpenFile(c.LedgerPath(), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("deadbeef 99 tor")
	f.Close()

	c2 := newTestCoordinator(t, dir, clk)
	defer c2.Close()
	if err := c2.AddJob(reopened(t, dir, job)); err != nil {
		t.Fatal(err)
	}
	// The acked grant survived the torn tail.
	if _, err := c2.renew(renewRequest{Job: l.Job, Row: l.Row, Epoch: l.Epoch, Term: l.Term, Worker: "w1"}); err != nil {
		t.Fatalf("grant lost to torn tail: %v", err)
	}
}

// TestReportForCountsStalledAsCanceled: a stalled cell, decoded from an
// earlier version's journal, was never measured — the report counts it
// canceled, so the run reads incomplete and Resume recomputes its row.
func TestReportForCountsStalledAsCanceled(t *testing.T) {
	job := testJob(t, "stalled", 2)
	m := sweep.NewMatrix(job.Space, job.Kernels)
	n := job.Space.Size()
	stalled := make([]sweep.CellStatus, n) // all StatusOK
	stalled[0] = sweep.StatusStalled
	m.Status[0], m.Status[1] = make([]sweep.CellStatus, n), stalled
	rep := reportFor(m)
	if rep.Canceled != 1 || rep.OK != rep.Cells-1 || rep.Complete() {
		t.Fatalf("report for one stalled cell = %s", rep.Summary())
	}
}

// runInBackground starts c.Run(ctx, job) and waits until the job is
// registered. The returned channel yields Run's matrix and error.
func runInBackground(t *testing.T, ctx context.Context, c *Coordinator, job Job) <-chan runResult {
	t.Helper()
	done := make(chan runResult, 1)
	go func() {
		m, _, err := c.Run(ctx, job)
		done <- runResult{m, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := c.Status(job.Name); ok {
			return done
		}
		if time.Now().After(deadline) {
			t.Fatalf("Run never registered %s", job.Name)
		}
		time.Sleep(time.Millisecond)
	}
}

type runResult struct {
	m   *sweep.Matrix
	err error
}

// TestCanceledRunLeavesCoordinator: once Run returns context.Canceled
// its job is gone. Nothing of it is granted again, a complete for a
// lease granted before the cancel answers 404 (so completeWithRetry
// gives up at once), a late renew answers 404 too, Status no longer
// knows the job, and the job's journal does not grow.
func TestCanceledRunLeavesCoordinator(t *testing.T) {
	clk := newTestClock()
	dir := t.TempDir()
	c := newTestCoordinator(t, dir, clk)
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	job := withJournal(t, dir, testJob(t, "j", 3))

	ctx, cancel := context.WithCancel(context.Background())
	done := runInBackground(t, ctx, c, job)
	l, err := c.acquire(acq("w1"))
	if err != nil || l == nil {
		t.Fatalf("acquire before the cancel: %+v %v", l, err)
	}
	cancel()
	res := <-done
	if !errors.Is(res.err, context.Canceled) || res.m == nil {
		t.Fatalf("Run after cancel = %v, %v; want the partial matrix and context.Canceled", res.m, res.err)
	}
	before, err := os.Stat(journalPath(dir, job.Name))
	if err != nil {
		t.Fatal(err)
	}

	if l2, err := c.acquire(acq("w2")); err != nil || l2 != nil {
		t.Fatalf("acquire after Run returned: granted %v, error %v; want neither", l2 != nil, err)
	}
	w, err := NewWorker(WorkerOptions{Name: "w1", Peers: []string{srv.URL}, Client: srv.Client()})
	if err != nil {
		t.Fatal(err)
	}
	req := okComplete(t, l, "w1")
	if status, _ := postJSON(t, srv.URL+"/v1/dist/complete", req); status != http.StatusNotFound {
		t.Fatalf("late complete answered %d, want 404", status)
	}
	cctx, ccancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer ccancel()
	if w.completeWithRetry(cctx, req) || cctx.Err() != nil {
		t.Fatalf("completeWithRetry should give up on the 404 (accepted or timed out instead)")
	}
	renew := renewRequest{Job: l.Job, Row: l.Row, Epoch: l.Epoch, Term: l.Term, Worker: "w1"}
	if status, _ := postJSON(t, srv.URL+"/v1/dist/renew", renew); status != http.StatusNotFound {
		t.Fatalf("late renew answered %d, want 404", status)
	}
	if st, ok := c.Status(job.Name); ok {
		t.Fatalf("the returned job is still registered: %+v", st)
	}
	after, err := os.Stat(journalPath(dir, job.Name))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("the canceled job's journal grew from %d to %d bytes", before.Size(), after.Size())
	}
}

// TestQuarantineSparesReturnedMatrix: a worker computes every row of a
// job, Run returns that job's matrix, and the worker is then
// quarantined for lying on another job. Its rows in the returned job
// were accepted unverified, but that job has left the coordinator, so
// the matrix Run returned stays unchanged and complete.
func TestQuarantineSparesReturnedMatrix(t *testing.T) {
	clk := newTestClock()
	dir := t.TempDir()
	c, err := NewCoordinator(dir, CoordinatorOptions{DefaultTTL: testTTL, now: clk.now, VerifyFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Seeds for the 50% sample: the finished job's one row is accepted
	// on the worker's word, the other job's row is held for a vote.
	seedDone, seedVote := int64(-1), int64(-1)
	for s := int64(0); seedDone < 0 || seedVote < 0; s++ {
		switch {
		case verifySelected(s, 0, 0.5) && seedVote < 0:
			seedVote = s
		case !verifySelected(s, 0, 0.5) && seedDone < 0:
			seedDone = s
		}
	}
	finished := withJournal(t, dir, testJob(t, "finished", 1))
	finished.Seed = seedDone
	live := withJournal(t, dir, testJob(t, "live", 1))
	live.Seed = seedVote

	done := runInBackground(t, context.Background(), c, finished)
	l, err := c.acquire(acq("liar"))
	if err != nil || l == nil || l.Job != finished.Name {
		t.Fatalf("acquire: %+v %v", l, err)
	}
	if resp, err := c.complete(okComplete(t, l, "liar")); err != nil || resp.Verified || resp.PendingVerify {
		t.Fatalf("unsampled complete should be accepted unverified: %+v %v", resp, err)
	}
	res := <-done
	if res.err != nil || !reportFor(res.m).Complete() {
		t.Fatalf("Run = %v; want the complete matrix", res.err)
	}
	want, err := sweep.CanonicalJournalBytes(res.m, res.m.Kernels)
	if err != nil {
		t.Fatal(err)
	}

	// The same worker lies on the live job and loses the vote to two
	// honest workers: quarantine.
	if err := c.AddJob(live); err != nil {
		t.Fatal(err)
	}
	lr, _ := c.acquire(acq("liar"))
	if resp, err := c.complete(tamperedComplete(t, lr, "liar")); err != nil || !resp.PendingVerify {
		t.Fatalf("sampled tampered complete should be held: %+v %v", resp, err)
	}
	for _, h := range []string{"h1", "h2"} {
		lh, err := c.acquire(acq(h))
		if err != nil || lh == nil {
			t.Fatalf("%s acquire: %+v %v", h, lh, err)
		}
		if _, err := c.complete(okComplete(t, lh, h)); err != nil {
			t.Fatal(err)
		}
	}
	if q := c.Quarantined(); len(q) != 1 || q[0] != "liar" {
		t.Fatalf("liar should be quarantined, got %v", q)
	}

	got, err := sweep.CanonicalJournalBytes(res.m, res.m.Kernels)
	if err != nil || !reportFor(res.m).Complete() {
		t.Fatalf("the returned matrix lost rows after the quarantine: %v (%s)", err, reportFor(res.m).Summary())
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the returned matrix changed after the quarantine")
	}
}
