package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gpuscale/internal/durable"
	"gpuscale/internal/gcn"
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
	return c, srv, s
}

// promote promotes s, then registers jobs on the promoted coordinator
// as their owner's recovery does over the replica directory: each
// job's replica journal reopened, then AddJob.
func promote(t *testing.T, s *Standby, jobs ...Job) *Coordinator {
	t.Helper()
	c, err := s.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	for _, job := range jobs {
		if err := c.AddJob(withJournal(t, s.dir, job)); err != nil {
			c.Close()
			t.Fatalf("registering %s on the promoted coordinator: %v", job.Name, err)
		}
	}
	return c
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
		l, err := first(c.acquire(acq("w1")))
		if err != nil || l == nil {
			t.Fatalf("acquire %d: %+v %v", i, l, err)
		}
		if l.Term != 1 {
			t.Fatalf("fresh coordinator should grant term 1, got %d", l.Term)
		}
		if _, err := one(c.complete(okComplete(t, l, "w1"))); err != nil {
			t.Fatalf("complete %d: %v", i, err)
		}
	}
	drainTail(t, s, c)

	pb, err := os.ReadFile(c.LedgerPath())
	if err != nil {
		t.Fatal(err)
	}
	sb, err := os.ReadFile(s.ledgerPath())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb, sb) {
		t.Fatalf("replica ledger diverged: primary %d bytes, replica %d bytes", len(pb), len(sb))
	}
	recs, err := ReadLedger(s.ledgerPath())
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
	// The standby checked each row record the primary journaled and
	// appended it: the replica journal is the primary's job journal,
	// byte for byte.
	replica := journalPath(s.dir, "j")
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

// TestStandbyMirrorsRetractedJournal: a quarantine retracts a row the
// coordinator accepted on a liar's word, and honest workers re-run it,
// so the primary's journal holds that row twice. A standby that syncs
// from a snapshot afterwards holds the journal byte for byte: the
// snapshot ships the journal's file, not the rows the coordinator
// counts done.
func TestStandbyMirrorsRetractedJournal(t *testing.T) {
	clk := newTestClock()
	c, _, s := newHAPair(t, clk, CoordinatorOptions{VerifyFraction: 0.5})
	// Row 0 is outside the 50% sample, row 1 inside it.
	job := testJob(t, "j", 2)
	job.Seed = splitSeed(t)
	if err := c.AddJob(withJournal(t, c.dir, job)); err != nil {
		t.Fatal(err)
	}
	land := func(worker string, row int, lie bool) rowResult {
		t.Helper()
		l, err := first(c.acquire(acq(worker)))
		if err != nil || l == nil || l.Row != row {
			t.Fatalf("%s should lease row %d: %+v %v", worker, row, l, err)
		}
		req := okComplete(t, l, worker)
		if lie {
			req = tamperedComplete(t, l, worker)
		}
		res, err := one(c.complete(req))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// The liar's row 0 is accepted on its word; its row 1 lie loses the
	// vote to two honest workers, which quarantines it and retracts row
	// 0; the honest workers then settle row 0 anew.
	land("liar", 0, true)
	land("liar", 1, true)
	land("h1", 1, false)
	if res := land("h2", 1, false); !res.Verified {
		t.Fatalf("row 1 should settle verified: %+v", res)
	}
	land("h1", 0, false)
	if res := land("h2", 0, false); !res.Verified {
		t.Fatalf("retracted row 0 should settle verified: %+v", res)
	}
	if st, _ := c.Status("j"); !st.Complete {
		t.Fatalf("job should be complete: %+v", st)
	}

	syncStandby(t, s)
	pj, err := os.ReadFile(journalPath(c.dir, "j"))
	if err != nil {
		t.Fatal(err)
	}
	if n := journalFrames(t, pj); n != 4 {
		t.Fatalf("the primary's journal holds %d records, want its space record, the lie and both honest rows", n)
	}
	sj, err := os.ReadFile(journalPath(s.dir, "j"))
	if err != nil || !bytes.Equal(pj, sj) {
		t.Fatalf("the synced replica journal is not the primary's: %d vs %d bytes (%v)", len(sj), len(pj), err)
	}
}

// TestStandbyMirrorsStateDirectory: the replica directory is the
// primary's state directory without its archives, file for file and
// byte for byte — ledger, journals and the owner's records — at every
// point the standby has drained the stream: after a fresh sync, a
// tail, a resumed job, a primary restart with its resync, and a job's
// retirement.
func TestStandbyMirrorsStateDirectory(t *testing.T) {
	clk := newTestClock()
	dir := t.TempDir()
	opt := CoordinatorOptions{ID: "primary-1", DefaultTTL: testTTL, ReplTimeout: 50 * time.Millisecond, now: clk.now}
	c, err := NewCoordinator(filepath.Join(dir, "dist"), opt)
	if err != nil {
		t.Fatal(err)
	}
	var h atomic.Pointer[http.Handler]
	serveC := func(c *Coordinator) {
		handler := c.Handler()
		h.Store(&handler)
	}
	serveC(c)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*h.Load()).ServeHTTP(w, r)
	}))
	defer srv.Close()
	s, err := NewStandby(t.TempDir(), StandbyOptions{Primary: srv.URL, now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	record := func(c *Coordinator, name, body string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		c.Replicate(path, []byte(body))
	}
	complete := func(c *Coordinator) {
		t.Helper()
		l, err := first(c.acquire(acq("w1")))
		if err != nil || l == nil {
			t.Fatalf("acquire: %+v %v", l, err)
		}
		if _, err := one(c.complete(okComplete(t, l, "w1"))); err != nil {
			t.Fatal(err)
		}
	}
	mirrored := func(when string) {
		t.Helper()
		checkMirror(t, when, dir, s.dir)
	}

	a := withJournal(t, dir, testJob(t, "a", 2))
	if err := c.AddJob(a); err != nil {
		t.Fatal(err)
	}
	record(c, "a.job", `{"id":"a"}`)
	syncStandby(t, s)
	mirrored("after a fresh sync")

	complete(c)
	drainTail(t, s, c)
	mirrored("after a tail")

	b := withJournal(t, dir, testJob(t, "b", 3))
	ctx, cancel := context.WithCancel(context.Background())
	done := runInBackground(t, ctx, c, b)
	complete(c) // a's last row
	complete(c) // b's first
	cancel()
	<-done
	b = reopened(t, dir, b)
	if err := c.AddJob(b); err != nil {
		t.Fatal(err)
	}
	complete(c)
	drainTail(t, s, c)
	mirrored("after a resumed job")

	// The restarted primary numbers a new log: the standby's next tail
	// is sent back to resync.
	c.Close()
	c2, err := NewCoordinator(filepath.Join(dir, "dist"), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	serveC(c2)
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	done = runInBackground(t, ctx, c2, reopened(t, dir, b))
	if err := s.tailOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	synced := s.synced
	s.mu.Unlock()
	if synced {
		t.Fatal("the standby kept tailing a restarted primary's new log")
	}
	syncStandby(t, s)
	drainTail(t, s, c2)
	mirrored("after a primary restart")

	clk.advance(2 * testTTL) // the recovered grants lapse
	complete(c2)
	if res := <-done; res.err != nil || !res.rep.Complete() {
		t.Fatalf("b's Run: %v", res.err)
	}
	record(c2, "b.state", `{"state":"complete"}`)
	drainTail(t, s, c2)
	mirrored("after a job retired")
}

// TestLateStandbyMirrorsFinishedJobs: a standby that first syncs after
// a job finished mirrors the primary's directory, the job's journal
// included, both while the primary that ran the job still runs and
// after a primary restart, whose owner hands over the records and the
// finished job's journal it recovered by name, as serve's start-up
// does.
func TestLateStandbyMirrorsFinishedJobs(t *testing.T) {
	clk := newTestClock()
	dir := t.TempDir()
	opt := CoordinatorOptions{ID: "primary-1", DefaultTTL: testTTL, ReplTimeout: 50 * time.Millisecond, now: clk.now}
	c, err := NewCoordinator(filepath.Join(dir, "dist"), opt)
	if err != nil {
		t.Fatal(err)
	}
	var h atomic.Pointer[http.Handler]
	serveC := func(c *Coordinator) {
		handler := c.Handler()
		h.Store(&handler)
	}
	serveC(c)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*h.Load()).ServeHTTP(w, r)
	}))
	defer srv.Close()
	record := func(name, body string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		c.Replicate(path, []byte(body))
	}
	lateStandby := func(when string) {
		t.Helper()
		s, err := NewStandby(t.TempDir(), StandbyOptions{Primary: srv.URL, now: clk.now})
		if err != nil {
			t.Fatal(err)
		}
		syncStandby(t, s)
		checkMirror(t, when, dir, s.dir)
	}

	job := withJournal(t, dir, testJob(t, "a", 2))
	record("a.job", `{"id":"a"}`)
	done := runInBackground(t, context.Background(), c, job)
	for i := 0; i < 2; i++ {
		l, err := first(c.acquire(acq("w1")))
		if err != nil || l == nil {
			t.Fatalf("acquire: %+v %v", l, err)
		}
		if _, err := one(c.complete(okComplete(t, l, "w1"))); err != nil {
			t.Fatal(err)
		}
	}
	if res := <-done; res.err != nil || !res.rep.Complete() {
		t.Fatalf("a's Run: %v", res.err)
	}
	record("a.state", `{"state":"complete"}`)
	lateStandby("after the job retired")

	c.Close()
	c, err = NewCoordinator(filepath.Join(dir, "dist"), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	serveC(c)
	for _, name := range []string{"a.job", "a.state", "a.journal"} {
		c.Replicate(filepath.Join(dir, name), nil)
	}
	lateStandby("after a primary restart")
}

// checkMirror fails the test unless the replica directory holds the
// primary directory's files, byte for byte, and no others.
func checkMirror(t *testing.T, when, primary, replica string) {
	t.Helper()
	want, got := fileTree(t, primary), fileTree(t, replica)
	for name, b := range want {
		if g, ok := got[name]; !ok || g != b {
			t.Errorf("%s: the replica's %s is not the primary's (%d vs %d bytes, present %v)",
				when, name, len(g), len(b), ok)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: the replica holds %s, which the primary does not", when, name)
		}
	}
}

// fileTree reads every regular file under root, keyed by its path
// relative to root.
func fileTree(t *testing.T, root string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		files[rel] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestStandbyForgetsRetiredJob: once the primary's Run returns, the
// job is gone from the replica too. A job canceled with one of three
// rows done keeps its replica journal, as the primary keeps its own,
// byte for byte; the promoted standby neither knows the job nor grants
// its remaining rows.
func TestStandbyForgetsRetiredJob(t *testing.T) {
	clk := newTestClock()
	c, srv, s := newHAPair(t, clk, CoordinatorOptions{})
	job := withJournal(t, c.dir, testJob(t, "j", 3))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := runInBackground(t, ctx, c, job)
	syncStandby(t, s)
	l, err := first(c.acquire(acq("w1")))
	if err != nil || l == nil {
		t.Fatalf("acquire: %+v %v", l, err)
	}
	if _, err := one(c.complete(okComplete(t, l, "w1"))); err != nil {
		t.Fatal(err)
	}
	drainTail(t, s, c)
	if _, err := os.Stat(journalPath(s.dir, "j")); err != nil {
		t.Fatalf("the standby should hold the live job's replica journal: %v", err)
	}

	cancel()
	if res := <-done; !errors.Is(res.err, context.Canceled) {
		t.Fatalf("Run after cancel = %v, want context.Canceled", res.err)
	}
	drainTail(t, s, c)
	pj, err := os.ReadFile(journalPath(c.dir, "j"))
	if err != nil {
		t.Fatal(err)
	}
	if sj, err := os.ReadFile(journalPath(s.dir, "j")); err != nil || !bytes.Equal(pj, sj) {
		t.Errorf("the retired job's replica journal was not kept as the primary's (%v)", err)
	}

	srv.Close()
	c2 := promote(t, s)
	defer c2.Close()
	if st, ok := c2.Status("j"); ok {
		t.Fatalf("the promoted standby re-registered the retired job: %+v", st)
	}
	if l, err := first(c2.acquire(acq("w2"))); err != nil || l != nil {
		t.Fatalf("the promoted standby granted %+v (%v) after the job left", l, err)
	}
}

// TestStandbyReplicaHoldsResumedRows: a job resumed after its Run
// returned, as a restarted owner resumes an interrupted job, replicates
// its journal whole again, with the rows it already held. The replica
// journal holds them, once each, and the promoted standby's owner,
// recovering over the replica, counts them done instead of re-granting
// them.
func TestStandbyReplicaHoldsResumedRows(t *testing.T) {
	clk := newTestClock()
	c, srv, s := newHAPair(t, clk, CoordinatorOptions{})
	job := withJournal(t, c.dir, testJob(t, "j", 3))
	ctx, cancel := context.WithCancel(context.Background())
	done := runInBackground(t, ctx, c, job)
	syncStandby(t, s)
	l, err := first(c.acquire(acq("w1")))
	if err != nil || l == nil {
		t.Fatalf("acquire: %+v %v", l, err)
	}
	if _, err := one(c.complete(okComplete(t, l, "w1"))); err != nil {
		t.Fatal(err)
	}
	cancel()
	<-done
	drainTail(t, s, c)

	if err := c.AddJob(reopened(t, c.dir, job)); err != nil {
		t.Fatal(err)
	}
	drainTail(t, s, c)
	m, err := sweep.ReadJournal(journalPath(s.dir, "j"), job.Space)
	if err != nil || m == nil || len(m.Kernels) != 1 || m.Kernels[0] != job.Kernels[l.Row].Name {
		t.Fatalf("the standby's replica should hold the resumed job's finished row: %v", err)
	}
	pj, _ := os.ReadFile(journalPath(c.dir, "j"))
	if sj, err := os.ReadFile(journalPath(s.dir, "j")); err != nil || !bytes.Equal(pj, sj) {
		t.Fatalf("the resumed job's replica journal is not the primary's (%v)", err)
	}

	srv.Close()
	c2 := promote(t, s, job)
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

	resp, err := http.Get(srv.URL + "/v1/ha/tail?cursor=0&log=" + armed.repl.id)
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
	if status, eb := postRequest(t, srv.URL+"/v1/dist/lease", acq("w1")); status != http.StatusConflict || eb.Code != "deposed" {
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
	job := testJob(t, "j", 1)
	if err := c.AddJob(withJournal(t, c.dir, job)); err != nil {
		t.Fatal(err)
	}
	syncStandby(t, s)
	l, err := first(c.acquire(acq("w1")))
	if err != nil || l == nil {
		t.Fatalf("acquire: %+v %v", l, err)
	}
	drainTail(t, s, c)
	srv.Close() // primary dies mid-grant

	c2 := promote(t, s, job)
	defer c2.Close()
	if c2.Term() != 2 {
		t.Fatalf("promoted coordinator should assert term 2, got %d", c2.Term())
	}
	resp, err := one(c2.complete(okComplete(t, l, "w1")))
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
	job := testJob(t, "j", 1)
	if err := c.AddJob(withJournal(t, c.dir, job)); err != nil {
		t.Fatal(err)
	}
	syncStandby(t, s)
	l, err := first(c.acquire(acq("w1")))
	if err != nil || l == nil {
		t.Fatalf("acquire: %+v %v", l, err)
	}
	req := okComplete(t, l, "w1")
	if resp, err := one(c.complete(req)); err != nil || resp.Duplicate {
		t.Fatalf("primary complete: %+v %v", resp, err)
	}
	drainTail(t, s, c)
	srv.Close() // the 200 never reached the worker

	c2 := promote(t, s, job)
	defer c2.Close()
	resp, err := one(c2.complete(req))
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
	job := testJob(t, "j", 1)
	if err := c.AddJob(withJournal(t, c.dir, job)); err != nil {
		t.Fatal(err)
	}
	syncStandby(t, s)
	l1, err := first(c.acquire(acq("w1")))
	if err != nil || l1 == nil {
		t.Fatalf("acquire: %+v %v", l1, err)
	}
	if resp, err := one(c.complete(okComplete(t, l1, "w1"))); err != nil || !resp.PendingVerify {
		t.Fatalf("sampled complete should be held pending: %+v %v", resp, err)
	}
	drainTail(t, s, c)
	srv.Close() // primary dies mid-revote

	c2 := promote(t, s, job)
	defer c2.Close()
	// Promotion replays with the crash-restart rules: the recovered
	// grant is conservatively re-extended a fresh TTL from replay time,
	// so the row only reopens once that lease would have expired.
	clk.advance(1100 * time.Millisecond)
	// The voter is still blocked from verifying itself on the new
	// primary — the pending vote replicated with the ledger.
	if l, err := first(c2.acquire(acq("w1"))); err != nil || l != nil {
		t.Fatalf("voter must not verify itself after failover: %+v %v", l, err)
	}
	l2, err := first(c2.acquire(acq("w2")))
	if err != nil || l2 == nil || l2.Row != l1.Row {
		t.Fatalf("independent worker should get the pending row: %+v %v", l2, err)
	}
	resp, err := one(c2.complete(okComplete(t, l2, "w2")))
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
	job := testJob(t, "j", 1)
	if err := c.AddJob(withJournal(t, c.dir, job)); err != nil {
		t.Fatal(err)
	}
	syncStandby(t, s)
	drainTail(t, s, c)
	srv.Close()
	c2 := promote(t, s, job)
	defer c2.Close()

	l, err := first(c2.acquire(acq("w1")))
	if err != nil || l == nil || l.Term != 2 {
		t.Fatalf("post-failover grant should carry term 2: %+v %v", l, err)
	}
	req := okComplete(t, l, "w1")
	req.Rows[0].Term = 1
	if _, err := one(c2.complete(req)); !errors.Is(err, errStaleTerm) {
		t.Fatalf("old-term complete on a new-term grant should fence, got %v", err)
	}

	srv2 := httptest.NewServer(c2.Handler())
	defer srv2.Close()
	var resp completeResponse
	status := postRows(t, srv2.URL+"/v1/dist/complete", req, &resp)
	if status != http.StatusOK || len(resp.Rows) != 1 || resp.Rows[0].Status != http.StatusConflict ||
		resp.Rows[0].Code != "stale-term" {
		t.Fatalf("HTTP stale-term fence should answer its row 409/stale-term, got %d %+v", status, resp.Rows)
	}
	// The honest retry with the granted term still lands.
	req.Rows[0].Term = l.Term
	if resp, err := one(c2.complete(req)); err != nil || resp.Duplicate {
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
	c2 := promote(t, s)
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
	if _, err := first(c.acquire(acq("w9"))); !errors.Is(err, ErrDeposed) {
		t.Fatalf("deposed acquire should refuse: %v", err)
	}
	status, eb := postRequest(t, srv.URL+"/v1/dist/lease", acq("w9"))
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
	if _, err := first(c.acquire(req)); !errors.Is(err, ErrDeposed) {
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

// TestBackoffDelaySchedule pins the worker's capped exponential
// full-jitter schedule: window doubles per attempt up to the cap, the
// roll scales inside the window, and the floor is 1ms.
func TestBackoffDelaySchedule(t *testing.T) {
	// roll=1 walks the deterministic ceiling of each window.
	want := []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, 1600 * time.Millisecond,
		2 * time.Second, 2 * time.Second, 2 * time.Second,
	}
	for attempt, w := range want {
		if got := backoffDelay(attempt, 1); got != w {
			t.Fatalf("attempt %d ceiling: got %v want %v", attempt, got, w)
		}
	}
	// Full jitter: the roll scales linearly inside the window.
	if got := backoffDelay(3, 0.5); got != 200*time.Millisecond {
		t.Fatalf("half roll in the 400ms window should be 200ms, got %v", got)
	}
	// Floor: a zero roll still sleeps at least 1ms (never a hot spin).
	if got := backoffDelay(0, 0); got != time.Millisecond {
		t.Fatalf("zero roll should floor at 1ms, got %v", got)
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
	l, err := first(c.acquire(acq("w1")))
	if err != nil || l == nil {
		t.Fatalf("acquire: %+v %v", l, err)
	}
	if _, err := one(c.complete(okComplete(t, l, "w1"))); err != nil {
		t.Fatal(err)
	}
	drainTail(t, s, c)
	dir := s.dir

	// More work lands while the standby is down.
	l2, err := first(c.acquire(acq("w1")))
	if err != nil || l2 == nil {
		t.Fatalf("acquire while standby down: %+v %v", l2, err)
	}
	if _, err := one(c.complete(okComplete(t, l2, "w1"))); err != nil {
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
	syncStandby(t, s2)
	drainTail(t, s2, c)
	pb, _ := os.ReadFile(c.LedgerPath())
	sb, _ := os.ReadFile(s2.ledgerPath())
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
	// A row appended to a journal the standby does not hold cannot
	// apply, however sound the row.
	c.repl.publish(appendMsg("ghost.journal", rowFrame("x", validPlanes(t, testSpace(t).Size()))))
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

// TestUndecodableTailIsStillContact: a primary that answers every tail
// and every snapshot with 200 is alive even when the body does not
// decode (a standby one build away from its primary reads exactly
// that). Each answer counts as contact and as an apply failure, and the
// cursor holds, so the standby never reaches its promotion deadline
// over a live primary.
func TestUndecodableTailIsStillContact(t *testing.T) {
	clk := newTestClock()
	c, err := NewCoordinator(t.TempDir(), CoordinatorOptions{DefaultTTL: testTTL, now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var garbled atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !garbled.Load() {
			c.Handler().ServeHTTP(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case "/v1/ha/tail":
			io.WriteString(w, `{"id":"p","term":1,"next":1,"msgs":[{"cursor":0,"name":{"not":"a name"},"data":"eA=="}]}`)
		case "/v1/ha/snapshot":
			io.WriteString(w, `{"id":"p","term":1,"cursor":0,"files":"not-a-list"}`)
		}
	}))
	defer srv.Close()
	s, err := NewStandby(t.TempDir(), StandbyOptions{Primary: srv.URL, now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	syncStandby(t, s)
	garbled.Store(true)
	s.mu.Lock()
	cursor := s.cursor
	s.mu.Unlock()
	for round, call := range []func(context.Context) error{s.tailOnce, s.syncOnce} {
		for i := 0; i < 5; i++ {
			clk.advance(time.Second)
			if err := call(context.Background()); err == nil || !strings.Contains(err.Error(), "decoding") {
				t.Fatalf("call %d.%d applied an undecodable answer (%v)", round, i, err)
			}
		}
		s.mu.Lock()
		quiet, after := s.now().Sub(s.lastContact), s.cursor
		s.mu.Unlock()
		if quiet >= s.o.PromoteAfter {
			t.Fatalf("round %d: a primary that answered every call counts as silent for %v (promotes after %v)",
				round, quiet, s.o.PromoteAfter)
		}
		if after != cursor {
			t.Fatalf("round %d: cursor moved past an undecodable answer: %d -> %d", round, cursor, after)
		}
		if got, want := s.mApplyFails.Value(), uint64(5*(round+1)); got != want {
			t.Fatalf("round %d: apply failures counted %d, want %d", round, got, want)
		}
	}
}

// TestReplicatedRecordsLandVerbatim: a record the job owner hands to
// Replicate reaches the standby's directory byte for byte, by the tail
// and by a snapshot, which reads it back from the owner's disk — a
// record named without its bytes, as a restarted owner names what it
// recovers, and an empty record, which has no frame on the wire,
// included.
func TestReplicatedRecordsLandVerbatim(t *testing.T) {
	clk := newTestClock()
	c, _, s := newHAPair(t, clk, CoordinatorOptions{})
	owner := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(owner, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		c.Replicate(filepath.Join(owner, name), []byte(body))
	}
	if err := os.WriteFile(filepath.Join(owner, "job-000000.state"), []byte(`{"state":"canceled"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	c.Replicate(filepath.Join(owner, "job-000000.state"), nil)
	write("job-000001.job", `{"id":"job-000001"}`)
	write("job-000002.job", "")
	syncStandby(t, s) // the snapshot carries the first three records
	write("job-000001.state", `{"state":"complete"}`)
	write("job-000002.state", "")
	drainTail(t, s, c) // the tail the last two
	for _, name := range []string{"job-000000.state", "job-000001.job", "job-000002.job", "job-000001.state", "job-000002.state"} {
		want, _ := os.ReadFile(filepath.Join(owner, name))
		if got, err := os.ReadFile(filepath.Join(s.dir, name)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("replica %s = %q (%v), want %q", name, got, err, want)
		}
	}
}

// TestStandbyRefusesBadRecordNames: a file whose name is not a plain
// file name, or whose bytes are not what its name calls for (a lease
// ledger, ledger frames, a journal), is refused, and so is an append
// to a record: the refusal is counted, the cursor holds on it, and
// nothing is written.
func TestStandbyRefusesBadRecordNames(t *testing.T) {
	clk := newTestClock()
	c, _, s := newHAPair(t, clk, CoordinatorOptions{})
	if err := c.AddJob(withJournal(t, c.dir, testJob(t, "j", 1))); err != nil {
		t.Fatal(err)
	}
	syncStandby(t, s)
	listing := func() []string {
		var out []string
		filepath.WalkDir(filepath.Dir(s.dir), func(path string, d os.DirEntry, err error) error {
			if err == nil {
				b, _ := os.ReadFile(path)
				out = append(out, path+"="+string(b))
			}
			return nil
		})
		return out
	}
	before := listing()
	var msgs []replMsg
	for _, name := range []string{"", ".", "..", "../escape.job", "dist/lease.ledger", "a/b.state", `a\b.state`,
		"j.journal", "job-000009.journal"} {
		msgs = append(msgs, replMsg{replFile: replFile{Name: name, Data: []byte("x")}})
	}
	msgs = append(msgs, appendMsg("job-000000.state", []byte("x")), appendMsg(ledgerName, []byte("x")),
		replMsg{replFile: replFile{Name: ledgerName, Data: []byte(ledgerMagic + "x")}})
	for i, m := range msgs {
		name := m.Name
		s.mu.Lock()
		cursor := s.cursor
		s.mu.Unlock()
		c.repl.publish(m)
		if err := s.tailOnce(context.Background()); err == nil || !strings.Contains(err.Error(), "refusing") {
			t.Errorf("record %q: want a refusal, got %v", name, err)
		}
		s.mu.Lock()
		after := s.cursor
		s.mu.Unlock()
		if after != cursor {
			t.Errorf("record %q: cursor moved past the refused record: %d -> %d", name, cursor, after)
		}
		if got := s.mApplyFails.Value(); got != uint64(i+1) {
			t.Errorf("record %q: %d apply failures counted, want %d", name, got, i+1)
		}
		syncStandby(t, s) // re-base past the refused record
	}
	if after := listing(); !reflect.DeepEqual(after, before) {
		t.Errorf("refused records changed the standby's directory:\nbefore %q\nafter  %q", before, after)
	}
}

// TestReplicaJournalFollowsPrimaryAcrossRestart: rows complete out of
// row order, the primary restarts and resumes the job, and the
// standby, re-based on the restarted primary, rebuilds the job's
// replica journal in the journal's order: after the restart and after
// the job's last row, it is the primary's journal byte for byte.
func TestReplicaJournalFollowsPrimaryAcrossRestart(t *testing.T) {
	clk := newTestClock()
	dir := t.TempDir()
	opt := CoordinatorOptions{ID: "primary-1", DefaultTTL: testTTL, ReplTimeout: 50 * time.Millisecond, now: clk.now}
	c, err := NewCoordinator(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	var h atomic.Pointer[http.Handler]
	serveC := func(c *Coordinator) {
		handler := c.Handler()
		h.Store(&handler)
	}
	serveC(c)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*h.Load()).ServeHTTP(w, r)
	}))
	defer srv.Close()
	s, err := NewStandby(t.TempDir(), StandbyOptions{Primary: srv.URL, now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	same := func(when string) {
		t.Helper()
		pj, err := os.ReadFile(journalPath(dir, "j"))
		if err != nil {
			t.Fatal(err)
		}
		if sj, err := os.ReadFile(journalPath(s.dir, "j")); err != nil || !bytes.Equal(pj, sj) {
			t.Fatalf("%s: replica journal is not the primary's: %d vs %d bytes (%v)", when, len(sj), len(pj), err)
		}
	}

	job := withJournal(t, dir, testJob(t, "j", 3))
	ctx, cancel := context.WithCancel(context.Background())
	done := runInBackground(t, ctx, c, job)
	syncStandby(t, s)
	l0, err := first(c.acquire(acq("w1")))
	if err != nil || l0 == nil {
		t.Fatalf("acquire: %+v %v", l0, err)
	}
	l1, err := first(c.acquire(acq("w2")))
	if err != nil || l1 == nil {
		t.Fatalf("acquire: %+v %v", l1, err)
	}
	// Out of row order: the journal holds row 1 before row 0.
	if _, err := one(c.complete(okComplete(t, l1, "w2"))); err != nil {
		t.Fatal(err)
	}
	if _, err := one(c.complete(okComplete(t, l0, "w1"))); err != nil {
		t.Fatal(err)
	}
	cancel()
	<-done
	drainTail(t, s, c)
	same("before the restart")

	c.Close()
	c2, err := NewCoordinator(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	serveC(c2)
	job = reopened(t, dir, job)
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	done = runInBackground(t, ctx, c2, job)
	// The restarted primary numbers a new log, and has already
	// published past the cursor the standby holds: a tail must not take
	// that cursor as a place in the new log.
	owner := t.TempDir()
	s.mu.Lock()
	stale := s.cursor
	s.mu.Unlock()
	for i := 0; c2.repl.latest() <= stale; i++ {
		path := filepath.Join(owner, fmt.Sprintf("job-%06d.job", i))
		if err := os.WriteFile(path, []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
		c2.Replicate(path, []byte("{}"))
	}
	for i := 0; ; i++ {
		if i == 100 {
			t.Fatal("the standby never re-based on the restarted primary")
		}
		if err := s.tailOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		synced := s.synced
		s.mu.Unlock()
		if !synced {
			syncStandby(t, s)
			break
		}
	}
	drainTail(t, s, c2)
	same("after the restart")
	clk.advance(2 * testTTL) // the recovered grants lapse
	l2, err := first(c2.acquire(acq("w1")))
	if err != nil || l2 == nil || l2.Row == l0.Row || l2.Row == l1.Row {
		t.Fatalf("acquire after the restart: %+v %v", l2, err)
	}
	if _, err := one(c2.complete(okComplete(t, l2, "w1"))); err != nil {
		t.Fatal(err)
	}
	if res := <-done; res.err != nil {
		t.Fatal(res.err)
	}
	drainTail(t, s, c2)
	same("after the last row")
}

// TestStandbyRefusesBadPlanes: the standby checks a replicated row
// record with the checks the primary applies to a complete. Every case
// of the validation table, and a record with no kernel name or a torn
// frame, is refused with its error — as an append to the replica
// journal and inside a whole journal image — the cursor holds on the
// refused message, and the replica journal is untouched.
func TestStandbyRefusesBadPlanes(t *testing.T) {
	clk := newTestClock()
	c, _, s := newHAPair(t, clk, CoordinatorOptions{})
	job := testJob(t, "j", 2)
	if err := c.AddJob(withJournal(t, c.dir, job)); err != nil {
		t.Fatal(err)
	}
	syncStandby(t, s)
	l, err := first(c.acquire(acq("w1")))
	if err != nil || l == nil {
		t.Fatalf("acquire: %+v %v", l, err)
	}
	valid := okComplete(t, l, "w1")
	if _, err := one(c.complete(valid)); err != nil {
		t.Fatal(err)
	}
	drainTail(t, s, c)
	journal := journalPath(s.dir, "j")
	kernel := job.Kernels[1-l.Row].Name
	type badFrame struct{ name, frame, want string }
	var cases []badFrame
	for _, tc := range badPlanes(valid.Rows[0].Planes, job.Space.Size()) {
		cases = append(cases, badFrame{tc.name, string(rowFrame(kernel, tc.planes)), tc.want})
	}
	good := rowFrame(kernel, valid.Rows[0].Planes)
	cases = append(cases,
		badFrame{"no-kernel", string(rowFrame("", valid.Rows[0].Planes)), "no kernel"},
		badFrame{"torn", string(good[:len(good)-2]), "torn record"})
	for _, tc := range cases {
		image, err := os.ReadFile(journal)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []replMsg{appendMsg("j.journal", []byte(tc.frame)),
			{replFile: replFile{Name: "j.journal", Data: append(image, tc.frame...)}}} {
			syncStandby(t, s) // re-base past the previous case's refused message
			s.mu.Lock()
			cursor := s.cursor
			s.mu.Unlock()
			c.repl.publish(m)
			if err := s.tailOnce(context.Background()); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s (append %v): want a %q refusal, got %v", tc.name, m.Append, tc.want, err)
			}
			s.mu.Lock()
			after := s.cursor
			s.mu.Unlock()
			if after != cursor {
				t.Errorf("%s (append %v): cursor moved past the refused row: %d -> %d", tc.name, m.Append, cursor, after)
			}
			if got, err := os.ReadFile(journal); err != nil || !bytes.Equal(got, image) {
				t.Errorf("%s (append %v): refused row changed the replica journal (%v)", tc.name, m.Append, err)
			}
		}
	}
}

// appendMsg is a replication message that appends data to the named
// file.
func appendMsg(name string, data []byte) replMsg {
	return replMsg{Append: true, replFile: replFile{Name: name, Data: data}}
}

// rowFrame frames a row record over planes, sound or not, as a journal
// append writes it: the kernel name, its length first, then the
// planes.
func rowFrame(kernel string, planes []byte) []byte {
	payload := append(binary.AppendUvarint(nil, uint64(len(kernel))), kernel...)
	return durable.Frame(append(payload, planes...))
}

// validPlanes packs a sound row of n configurations.
func validPlanes(t *testing.T, n int) []byte {
	t.Helper()
	tput, timeNS, bound := make([]float64, n), make([]float64, n), make([]gcn.Bound, n)
	for i := range tput {
		tput[i], timeNS[i] = 1+float64(i), 2+float64(i)
	}
	rec, err := sweep.EncodePlanes("valid", tput, timeNS, bound)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Packed()
}

// postRequest posts body (requestBody) and decodes the typed error
// envelope.
func postRequest(t *testing.T, url string, body any) (int, errorBody) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(requestBody(t, body)))
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
