package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpuscale/internal/sweep"
)

// newHAPair builds a primary coordinator behind a real HTTP server and
// a standby pointed at it. Replication is driven explicitly from the
// tests (syncStandby / drainTail) so every stage of the failover is a
// deterministic checkpoint rather than a race against timers.
func newHAPair(t *testing.T, clk *testClock, copt CoordinatorOptions) (*Coordinator, *httptest.Server, *Standby) {
	t.Helper()
	copt.now = clk.now
	if copt.ID == "" {
		copt.ID = "primary-1"
	}
	copt.DefaultTTL = testTTL
	copt.ReplTimeout = 50 * time.Millisecond
	c, err := NewCoordinator(t.TempDir(), copt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	s, err := NewStandby(t.TempDir(), StandbyOptions{
		ID:      "standby-1",
		Primary: srv.URL,
		Coordinator: CoordinatorOptions{
			ID: "standby-1", DefaultTTL: testTTL, now: clk.now,
			VerifyFraction: copt.VerifyFraction,
		},
		now: clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return c, srv, s
}

func syncStandby(t *testing.T, s *Standby) {
	t.Helper()
	if err := s.syncOnce(context.Background()); err != nil {
		t.Fatalf("standby snapshot sync: %v", err)
	}
}

// drainTail tails until the standby's cursor reaches everything the
// primary has published.
func drainTail(t *testing.T, s *Standby, c *Coordinator) {
	t.Helper()
	for i := 0; i < 100; i++ {
		s.mu.Lock()
		cur, synced := s.cursor, s.synced
		s.mu.Unlock()
		if !synced {
			t.Fatal("standby fell out of sync while draining")
		}
		if cur >= c.repl.latest() {
			return
		}
		if err := s.tailOnce(context.Background()); err != nil {
			t.Fatalf("standby tail: %v", err)
		}
	}
	t.Fatal("replication never caught up with the primary")
}

// TestReplicaLedgerByteIdentical: frames replicated over the tail
// stream land verbatim, so the replica ledger file is byte-identical
// to the primary's — the property that lets a promoted standby replay
// with exactly the same recovery code a crash-restart uses.
func TestReplicaLedgerByteIdentical(t *testing.T) {
	clk := newTestClock()
	c, _, s := newHAPair(t, clk, CoordinatorOptions{})
	if err := c.AddJob(withJournal(t, c.dir, testJob(t, "j", 2))); err != nil {
		t.Fatal(err)
	}
	syncStandby(t, s)
	for i := 0; i < 2; i++ {
		l, err := c.acquire(acq("w1"))
		if err != nil || l == nil {
			t.Fatalf("acquire %d: %+v %v", i, l, err)
		}
		if l.Term != 1 {
			t.Fatalf("fresh coordinator should grant term 1, got %d", l.Term)
		}
		if _, err := c.complete(okComplete(t, l, "w1")); err != nil {
			t.Fatalf("complete %d: %v", i, err)
		}
	}
	drainTail(t, s, c)

	pb, err := os.ReadFile(c.LedgerPath())
	if err != nil {
		t.Fatal(err)
	}
	sb, err := os.ReadFile(filepath.Join(s.dir, "lease.ledger"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb, sb) {
		t.Fatalf("replica ledger diverged: primary %d bytes, replica %d bytes", len(pb), len(sb))
	}
	recs, err := ReadLedger(filepath.Join(s.dir, "lease.ledger"))
	if err != nil {
		t.Fatal(err)
	}
	audit, err := AuditLedger(recs)
	if err != nil {
		t.Fatalf("replica ledger audit: %v", err)
	}
	if len(audit.Terms) != 1 || audit.Terms[0].Term != 1 || audit.Completes != 2 {
		t.Fatalf("replica audit: terms %v completes %d", audit.Terms, audit.Completes)
	}
	// The standby validated each row's packed planes and rendered the
	// record the primary journaled: the replica journal is the
	// primary's job journal, byte for byte.
	replica := s.journalPath("j")
	pj, err := os.ReadFile(journalPath(c.dir, "j"))
	if err != nil {
		t.Fatal(err)
	}
	sjb, err := os.ReadFile(replica)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pj, sjb) {
		t.Fatalf("replica journal diverged: primary %d bytes, replica %d bytes", len(pj), len(sjb))
	}
	if m, err := sweep.ReadJournal(replica, testSpace(t)); err != nil || m == nil || len(m.Kernels) != 2 {
		t.Fatalf("standby should hold both replicated rows: %v", err)
	}
}

// TestStandbyForgetsRetiredJob: once the primary's Run returns, the
// standby forgets the job too. A job canceled with one of three rows
// done leaves no spec or replica journal in the standby's directory,
// and the promoted standby neither knows the job nor grants its
// remaining rows.
func TestStandbyForgetsRetiredJob(t *testing.T) {
	clk := newTestClock()
	c, srv, s := newHAPair(t, clk, CoordinatorOptions{})
	job := withJournal(t, c.dir, testJob(t, "j", 3))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := runInBackground(t, ctx, c, job)
	syncStandby(t, s)
	l, err := c.acquire(acq("w1"))
	if err != nil || l == nil {
		t.Fatalf("acquire: %+v %v", l, err)
	}
	if _, err := c.complete(okComplete(t, l, "w1")); err != nil {
		t.Fatal(err)
	}
	drainTail(t, s, c)
	if _, err := os.Stat(s.journalPath("j")); err != nil {
		t.Fatalf("the standby should hold the live job's replica journal: %v", err)
	}

	cancel()
	if res := <-done; !errors.Is(res.err, context.Canceled) {
		t.Fatalf("Run after cancel = %v, want context.Canceled", res.err)
	}
	drainTail(t, s, c)
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "j.") {
			t.Errorf("standby still holds %s for the retired job", e.Name())
		}
	}

	srv.Close()
	c2, err := s.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer c2.Close()
	if st, ok := c2.Status("j"); ok {
		t.Fatalf("the promoted standby re-registered the retired job: %+v", st)
	}
	if l, err := c2.acquire(acq("w2")); err != nil || l != nil {
		t.Fatalf("the promoted standby granted %+v (%v) after the job left", l, err)
	}
}

// TestStandbyReplicaHoldsResumedRows: a job resumed after its Run
// returned, as a restarted owner resumes an interrupted job, brings the
// rows its journal already held back to the standby, which forgot the
// job when the first Run returned. The replica journal holds them
// again, and a promotion counts them done instead of re-granting them.
func TestStandbyReplicaHoldsResumedRows(t *testing.T) {
	clk := newTestClock()
	c, srv, s := newHAPair(t, clk, CoordinatorOptions{})
	job := withJournal(t, c.dir, testJob(t, "j", 3))
	ctx, cancel := context.WithCancel(context.Background())
	done := runInBackground(t, ctx, c, job)
	syncStandby(t, s)
	l, err := c.acquire(acq("w1"))
	if err != nil || l == nil {
		t.Fatalf("acquire: %+v %v", l, err)
	}
	if _, err := c.complete(okComplete(t, l, "w1")); err != nil {
		t.Fatal(err)
	}
	cancel()
	<-done
	drainTail(t, s, c)

	if err := c.AddJob(reopened(t, c.dir, job)); err != nil {
		t.Fatal(err)
	}
	drainTail(t, s, c)
	m, err := sweep.ReadJournal(s.journalPath("j"), job.Space)
	if err != nil || m == nil || len(m.Kernels) != 1 || m.Kernels[0] != job.Kernels[l.Row].Name {
		t.Fatalf("the standby's replica should hold the resumed job's finished row: %v", err)
	}

	srv.Close()
	c2, err := s.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer c2.Close()
	if st, ok := c2.Status("j"); !ok || st.Done != 1 {
		t.Fatalf("the promoted standby should resume the job with its finished row: %+v", st)
	}
}

// TestSelfFenceAfterStandbySilence: a primary whose standby tailed it
// once steps down when the standby then stays silent past
// SelfFenceAfter — it cannot tell a dead standby from one that promoted
// across a partition — and answers lease requests 409 "deposed" from
// then on. A primary whose standby never tailed is not armed and stays
// primary over the same window.
func TestSelfFenceAfterStandbySilence(t *testing.T) {
	opt := CoordinatorOptions{SelfFenceAfter: 150 * time.Millisecond, CheckEvery: 10 * time.Millisecond}
	armed, err := NewCoordinator(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer armed.Close()
	solo, err := NewCoordinator(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	srv := httptest.NewServer(armed.Handler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range []*Coordinator{armed, solo} {
		if err := c.StartHA(ctx); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(srv.URL + "/v1/ha/tail?cursor=0")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tail answered %d", resp.StatusCode)
	}
	select {
	case <-armed.Deposed():
	case <-time.After(2 * time.Second):
		t.Fatal("a primary whose standby went silent never self-fenced")
	}
	if status, eb := postJSON(t, srv.URL+"/v1/dist/lease", acq("w1")); status != http.StatusConflict || eb.Code != "deposed" {
		t.Fatalf("self-fenced lease should be 409/deposed, got %d/%q", status, eb.Code)
	}
	select {
	case <-solo.Deposed():
		t.Fatal("a primary whose standby never tailed self-fenced")
	case <-time.After(2 * opt.SelfFenceAfter):
	}
}

// TestPromotionMidGrantKeepsLeaseLive: a lease granted under term N
// completes on the term-N+1 promoted standby — the grant record's term
// rides the replica ledger, so the fence admits the old lease instead
// of stranding in-flight work.
func TestPromotionMidGrantKeepsLeaseLive(t *testing.T) {
	clk := newTestClock()
	c, srv, s := newHAPair(t, clk, CoordinatorOptions{})
	if err := c.AddJob(withJournal(t, c.dir, testJob(t, "j", 1))); err != nil {
		t.Fatal(err)
	}
	syncStandby(t, s)
	l, err := c.acquire(acq("w1"))
	if err != nil || l == nil {
		t.Fatalf("acquire: %+v %v", l, err)
	}
	drainTail(t, s, c)
	srv.Close() // primary dies mid-grant

	c2, err := s.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer c2.Close()
	if c2.Term() != 2 {
		t.Fatalf("promoted coordinator should assert term 2, got %d", c2.Term())
	}
	resp, err := c2.complete(okComplete(t, l, "w1"))
	if err != nil || resp.Duplicate {
		t.Fatalf("old-term lease should complete on the new primary: %+v %v", resp, err)
	}
	st, ok := c2.Status("j")
	if !ok || !st.Complete {
		t.Fatalf("job should be complete after failover: %+v", st)
	}
	recs, err := ReadLedger(c2.LedgerPath())
	if err != nil {
		t.Fatal(err)
	}
	audit, err := AuditLedger(recs)
	if err != nil {
		t.Fatalf("post-failover audit: %v", err)
	}
	if len(audit.Terms) != 2 || audit.Terms[0].Term != 1 || audit.Terms[1].Term != 2 {
		t.Fatalf("audit should show terms 1 then 2: %+v", audit.Terms)
	}
}

// TestPromotionAfterUnackedComplete: the complete landed and
// replicated but its ack was lost with the primary. The worker's retry
// against the promoted standby must come back as a duplicate, not a
// second merge — exactly-once across the failover.
func TestPromotionAfterUnackedComplete(t *testing.T) {
	clk := newTestClock()
	c, srv, s := newHAPair(t, clk, CoordinatorOptions{})
	if err := c.AddJob(withJournal(t, c.dir, testJob(t, "j", 1))); err != nil {
		t.Fatal(err)
	}
	syncStandby(t, s)
	l, err := c.acquire(acq("w1"))
	if err != nil || l == nil {
		t.Fatalf("acquire: %+v %v", l, err)
	}
	req := okComplete(t, l, "w1")
	if resp, err := c.complete(req); err != nil || resp.Duplicate {
		t.Fatalf("primary complete: %+v %v", resp, err)
	}
	drainTail(t, s, c)
	srv.Close() // the 200 never reached the worker

	c2, err := s.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer c2.Close()
	resp, err := c2.complete(req)
	if err != nil || !resp.Duplicate {
		t.Fatalf("retried complete after failover should be a duplicate ack: %+v %v", resp, err)
	}
	st, _ := c2.Status("j")
	if !st.Complete || st.Done != 1 {
		t.Fatalf("row must be counted exactly once: %+v", st)
	}
}

// TestPromotionDuringVerifyRevote: a sampled row whose first vote was
// pending when the primary died finishes its revote on the promoted
// standby — the attest record replicated, so the new primary grants
// the verification pass and settles on digest agreement.
func TestPromotionDuringVerifyRevote(t *testing.T) {
	clk := newTestClock()
	c, srv, s := newHAPair(t, clk, CoordinatorOptions{VerifyFraction: 1})
	if err := c.AddJob(withJournal(t, c.dir, testJob(t, "j", 1))); err != nil {
		t.Fatal(err)
	}
	syncStandby(t, s)
	l1, err := c.acquire(acq("w1"))
	if err != nil || l1 == nil {
		t.Fatalf("acquire: %+v %v", l1, err)
	}
	if resp, err := c.complete(okComplete(t, l1, "w1")); err != nil || !resp.PendingVerify {
		t.Fatalf("sampled complete should be held pending: %+v %v", resp, err)
	}
	drainTail(t, s, c)
	srv.Close() // primary dies mid-revote

	c2, err := s.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer c2.Close()
	// Promotion replays with the crash-restart rules: the recovered
	// grant is conservatively re-extended a fresh TTL from replay time,
	// so the row only reopens once that lease would have expired.
	clk.advance(1100 * time.Millisecond)
	// The voter is still blocked from verifying itself on the new
	// primary — the pending vote replicated with the ledger.
	if l, err := c2.acquire(acq("w1")); err != nil || l != nil {
		t.Fatalf("voter must not verify itself after failover: %+v %v", l, err)
	}
	l2, err := c2.acquire(acq("w2"))
	if err != nil || l2 == nil || l2.Row != l1.Row {
		t.Fatalf("independent worker should get the pending row: %+v %v", l2, err)
	}
	resp, err := c2.complete(okComplete(t, l2, "w2"))
	if err != nil || !resp.Verified {
		t.Fatalf("agreeing revote should settle verified on the new primary: %+v %v", resp, err)
	}
	st, _ := c2.Status("j")
	if !st.Complete {
		t.Fatalf("job should settle after the cross-failover revote: %+v", st)
	}
}

// TestStaleTermCompleteFenced: a row granted by the new term cannot be
// completed with the old term, in-process and over HTTP (409
// "stale-term").
func TestStaleTermCompleteFenced(t *testing.T) {
	clk := newTestClock()
	c, srv, s := newHAPair(t, clk, CoordinatorOptions{})
	if err := c.AddJob(withJournal(t, c.dir, testJob(t, "j", 1))); err != nil {
		t.Fatal(err)
	}
	syncStandby(t, s)
	drainTail(t, s, c)
	srv.Close()
	c2, err := s.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer c2.Close()

	l, err := c2.acquire(acq("w1"))
	if err != nil || l == nil || l.Term != 2 {
		t.Fatalf("post-failover grant should carry term 2: %+v %v", l, err)
	}
	req := okComplete(t, l, "w1")
	req.Term = 1
	if _, err := c2.complete(req); !errors.Is(err, errStaleTerm) {
		t.Fatalf("old-term complete on a new-term grant should fence, got %v", err)
	}

	srv2 := httptest.NewServer(c2.Handler())
	defer srv2.Close()
	status, eb := postJSON(t, srv2.URL+"/v1/dist/complete", req)
	if status != http.StatusConflict || eb.Code != "stale-term" {
		t.Fatalf("HTTP stale-term fence should be 409/stale-term, got %d/%q", status, eb.Code)
	}
	// The honest retry with the granted term still lands.
	req.Term = l.Term
	if resp, err := c2.complete(req); err != nil || resp.Duplicate {
		t.Fatalf("correct-term complete should land: %+v %v", resp, err)
	}
}

// TestDeposedByPeerProbe: a primary that finds a peer asserting a
// higher term steps down — StartHA returns ErrDeposed, every protocol
// call refuses with it, the HTTP surface answers 409 "deposed", and
// Deposed() is closed for the process exit path.
func TestDeposedByPeerProbe(t *testing.T) {
	clk := newTestClock()
	c, srv, s := newHAPair(t, clk, CoordinatorOptions{})
	if err := c.AddJob(withJournal(t, c.dir, testJob(t, "j", 1))); err != nil {
		t.Fatal(err)
	}
	syncStandby(t, s)
	drainTail(t, s, c)
	c2, err := s.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer c2.Close()
	srv2 := httptest.NewServer(c2.Handler())
	defer srv2.Close()

	// The deposed primary limps back and probes its peer list.
	c.opt.Peers = []string{srv2.URL}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.StartHA(ctx); !errors.Is(err, ErrDeposed) {
		t.Fatalf("StartHA next to a live newer term should return ErrDeposed, got %v", err)
	}
	select {
	case <-c.Deposed():
	default:
		t.Fatal("Deposed() should be closed after stepping down")
	}
	if _, err := c.acquire(acq("w9")); !errors.Is(err, ErrDeposed) {
		t.Fatalf("deposed acquire should refuse: %v", err)
	}
	status, eb := postJSON(t, srv.URL+"/v1/dist/lease", acq("w9"))
	if status != http.StatusConflict || eb.Code != "deposed" {
		t.Fatalf("deposed HTTP lease should be 409/deposed, got %d/%q", status, eb.Code)
	}
	resp, err := http.Get(srv.URL + "/v1/ha/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("deposed snapshot should refuse with 409, got %d", resp.StatusCode)
	}
}

// TestDeposedByWorkerCarriedTerm: a worker that has seen a newer term
// deposes a stale primary on contact — the partition-tolerant fencing
// path that needs no peer connectivity at all.
func TestDeposedByWorkerCarriedTerm(t *testing.T) {
	clk := newTestClock()
	c := newTestCoordinator(t, t.TempDir(), clk)
	defer c.Close()
	if err := c.AddJob(withJournal(t, c.dir, testJob(t, "j", 1))); err != nil {
		t.Fatal(err)
	}
	req := acq("w1")
	req.Term = 7
	if _, err := c.acquire(req); !errors.Is(err, ErrDeposed) {
		t.Fatalf("worker-carried newer term should depose, got %v", err)
	}
	select {
	case <-c.Deposed():
	default:
		t.Fatal("Deposed() should be closed")
	}
}

// TestAuditLedgerTermRules: the audit proves term monotonicity and
// no-two-live-primaries, while pre-HA ledgers (no term plane) still
// pass.
func TestAuditLedgerTermRules(t *testing.T) {
	cases := []struct {
		name string
		recs []LedgerRecord
		want string
	}{
		{"term regression", []LedgerRecord{
			{Kind: "term", Term: 2, Worker: "a"},
			{Kind: "term", Term: 2, Worker: "b"},
		}, "term regressed"},
		{"two live primaries", []LedgerRecord{
			{Kind: "term", Term: 1, Worker: "a"},
			{Kind: "grant", Job: "j", Row: 0, Epoch: 1, Term: 1, Worker: "w"},
			{Kind: "term", Term: 2, Worker: "b"},
			{Kind: "complete", Job: "j", Row: 0, Epoch: 1, Term: 1, Worker: "w"},
		}, "two live primaries"},
		{"pre-HA ledger still passes", []LedgerRecord{
			{Kind: "grant", Job: "j", Row: 0, Epoch: 1, Worker: "w"},
			{Kind: "complete", Job: "j", Row: 0, Epoch: 1, Worker: "w"},
		}, ""},
		{"clean failover passes", []LedgerRecord{
			{Kind: "term", Term: 1, Worker: "a"},
			{Kind: "grant", Job: "j", Row: 0, Epoch: 1, Term: 1, Worker: "w"},
			{Kind: "term", Term: 2, Worker: "b"},
			{Kind: "complete", Job: "j", Row: 0, Epoch: 1, Term: 2, Worker: "w"},
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := AuditLedger(tc.recs)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("audit should pass: %v", err)
				}
				return
			}
			if err == nil || !bytes.Contains([]byte(err.Error()), []byte(tc.want)) {
				t.Fatalf("audit error should mention %q, got %v", tc.want, err)
			}
		})
	}
}

// TestJobSpecRoundtrip: the replicated job wire form reconstructs the
// job a promoted standby re-registers.
func TestJobSpecRoundtrip(t *testing.T) {
	job := testJob(t, "jr", 2)
	spec, err := specForJob(job)
	if err != nil {
		t.Fatal(err)
	}
	// The spec must survive JSON (it rides the snapshot and jobspec
	// files).
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back JobSpec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.job()
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != job.Name || len(got.Kernels) != len(job.Kernels) ||
		got.Space.Size() != job.Space.Size() || got.Seed != job.Seed ||
		got.NoiseStdDev != job.NoiseStdDev {
		t.Fatalf("job spec roundtrip mangled the job: %+v vs %+v", got, job)
	}
	for i := range got.Kernels {
		if got.Kernels[i].Name != job.Kernels[i].Name {
			t.Fatalf("kernel %d name %q != %q", i, got.Kernels[i].Name, job.Kernels[i].Name)
		}
	}
}

// TestBackoffDelaySchedule pins the worker's capped exponential
// full-jitter schedule: window doubles per attempt up to the cap, the
// roll scales inside the window, and the floor is 1ms.
func TestBackoffDelaySchedule(t *testing.T) {
	base, max := 50*time.Millisecond, 2*time.Second
	// roll=1 walks the deterministic ceiling of each window.
	want := []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, 1600 * time.Millisecond,
		2 * time.Second, 2 * time.Second, 2 * time.Second,
	}
	for attempt, w := range want {
		if got := backoffDelay(base, max, attempt, 1); got != w {
			t.Fatalf("attempt %d ceiling: got %v want %v", attempt, got, w)
		}
	}
	// Full jitter: the roll scales linearly inside the window.
	if got := backoffDelay(base, max, 3, 0.5); got != 200*time.Millisecond {
		t.Fatalf("half roll in the 400ms window should be 200ms, got %v", got)
	}
	// Floor: a zero roll still sleeps at least 1ms (never a hot spin).
	if got := backoffDelay(base, max, 0, 0); got != time.Millisecond {
		t.Fatalf("zero roll should floor at 1ms, got %v", got)
	}
	// Defaults guard nonsensical configs.
	if got := backoffDelay(0, 0, 0, 1); got != 50*time.Millisecond {
		t.Fatalf("zero base should default to 50ms, got %v", got)
	}
	if got := backoffDelay(time.Second, time.Millisecond, 5, 1); got != time.Second {
		t.Fatalf("max below base clamps to base, got %v", got)
	}
}

// TestStandbyRestartResyncs: a restarted standby re-bases on a fresh
// snapshot (the cursor is process-local) and keeps replicating.
func TestStandbyRestartResyncs(t *testing.T) {
	clk := newTestClock()
	c, srv, s := newHAPair(t, clk, CoordinatorOptions{})
	if err := c.AddJob(withJournal(t, c.dir, testJob(t, "j", 2))); err != nil {
		t.Fatal(err)
	}
	syncStandby(t, s)
	l, err := c.acquire(acq("w1"))
	if err != nil || l == nil {
		t.Fatalf("acquire: %+v %v", l, err)
	}
	if _, err := c.complete(okComplete(t, l, "w1")); err != nil {
		t.Fatal(err)
	}
	drainTail(t, s, c)
	dir := s.dir
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// More work lands while the standby is down.
	l2, err := c.acquire(acq("w1"))
	if err != nil || l2 == nil {
		t.Fatalf("acquire while standby down: %+v %v", l2, err)
	}
	if _, err := c.complete(okComplete(t, l2, "w1")); err != nil {
		t.Fatal(err)
	}

	s2, err := NewStandby(dir, StandbyOptions{
		ID: "standby-1", Primary: srv.URL,
		Coordinator: CoordinatorOptions{ID: "standby-1", DefaultTTL: testTTL, now: clk.now},
		now:         clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	syncStandby(t, s2)
	drainTail(t, s2, c)
	pb, _ := os.ReadFile(c.LedgerPath())
	sb, _ := os.ReadFile(filepath.Join(dir, "lease.ledger"))
	if !bytes.Equal(pb, sb) {
		t.Fatalf("restarted replica diverged: primary %d bytes, replica %d bytes", len(pb), len(sb))
	}
}

// TestUnappliableTailIsStillContact: a primary that answers every
// tail is alive even when what it sends cannot be applied (a standby
// built from another protocol version takes exactly this path). The
// answers count as contact, so the standby never reaches its promotion
// deadline over a live primary; each failure is counted and the cursor
// holds on the failing message.
func TestUnappliableTailIsStillContact(t *testing.T) {
	clk := newTestClock()
	c, _, s := newHAPair(t, clk, CoordinatorOptions{})
	if err := c.AddJob(withJournal(t, c.dir, testJob(t, "j", 1))); err != nil {
		t.Fatal(err)
	}
	syncStandby(t, s)
	// A row for a job the standby never replicated cannot apply.
	c.repl.publish(replMsg{Kind: "row", Row: &RowPlanes{Job: "ghost", Row: 0, Kernel: "x"}})
	s.mu.Lock()
	cursor := s.cursor
	s.mu.Unlock()
	for i := 0; i < 5; i++ {
		clk.advance(time.Second)
		if err := s.tailOnce(context.Background()); err == nil {
			t.Fatalf("tail %d applied a row for an unreplicated job", i)
		}
	}
	s.mu.Lock()
	quiet, after := s.now().Sub(s.lastContact), s.cursor
	s.mu.Unlock()
	if quiet >= s.o.PromoteAfter {
		t.Fatalf("standby counts a primary that answered every tail as silent for %v (promotes after %v)",
			quiet, s.o.PromoteAfter)
	}
	if after != cursor {
		t.Fatalf("cursor moved past the unappliable message: %d -> %d", cursor, after)
	}
	if got := s.mApplyFails.Value(); got != 5 {
		t.Fatalf("apply failures counted %d, want 5", got)
	}
}

// TestStandbyRefusesBadPlanes: the standby validates replicated packed
// planes with the checks the primary applies to a complete. Every case
// of the validation table is refused with its error, the cursor holds
// on the refused message, and the replica journal is untouched.
func TestStandbyRefusesBadPlanes(t *testing.T) {
	clk := newTestClock()
	c, _, s := newHAPair(t, clk, CoordinatorOptions{})
	job := testJob(t, "j", 2)
	if err := c.AddJob(withJournal(t, c.dir, job)); err != nil {
		t.Fatal(err)
	}
	syncStandby(t, s)
	l, err := c.acquire(acq("w1"))
	if err != nil || l == nil {
		t.Fatalf("acquire: %+v %v", l, err)
	}
	valid := okComplete(t, l, "w1")
	if _, err := c.complete(valid); err != nil {
		t.Fatal(err)
	}
	drainTail(t, s, c)
	journal := s.journalPath("j")
	other := 1 - l.Row
	for _, tc := range badPlanes(valid.Planes, job.Space.Size()) {
		syncStandby(t, s) // re-base past the previous case's refused message
		before, err := os.ReadFile(journal)
		if err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		cursor := s.cursor
		s.mu.Unlock()
		c.repl.publish(replMsg{Kind: "row", Row: &RowPlanes{
			Job: "j", Row: other, Kernel: job.Kernels[other].Name, Planes: tc.planes}})
		if err := s.tailOnce(context.Background()); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want a %q refusal, got %v", tc.name, tc.want, err)
		}
		s.mu.Lock()
		after := s.cursor
		s.mu.Unlock()
		if after != cursor {
			t.Errorf("%s: cursor moved past the refused row: %d -> %d", tc.name, cursor, after)
		}
		if got, err := os.ReadFile(journal); err != nil || !bytes.Equal(got, before) {
			t.Errorf("%s: refused row changed the replica journal (%v)", tc.name, err)
		}
	}
}

// postJSON posts body as JSON and decodes the typed error envelope.
func postJSON(t *testing.T, url string, body any) (int, errorBody) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	json.Unmarshal(data, &eb)
	return resp.StatusCode, eb
}
