package dist

// Unit tests for the integrity plane: the version/fingerprint
// handshake, per-row attestation, sampled re-verification votes,
// strikes, quarantine, invalidation of a quarantined worker's
// unverified rows, and recovery of all of it from the ledger.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"gpuscale/internal/gcn"
	"gpuscale/internal/sweep"
)

// tamperedComplete is okComplete with one cell nudged the way a
// byzantine worker's tamperRow does — still plausible planes, and a
// digest that truthfully hashes the tampered values, so only
// independent re-execution can expose the lie.
func tamperedComplete(t *testing.T, l *Lease, worker string) completeRequest {
	t.Helper()
	return completeRequest{Worker: worker, Job: l.Job, Rows: []rowComplete{tamperedRow(t, l)}}
}

// tamperedRow is tamperedComplete's one row.
func tamperedRow(t *testing.T, l *Lease) rowComplete {
	t.Helper()
	req := okRow(t, l)
	k, err := l.DecodeKernel()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sweep.PackedRecord(k.Name, l.Space.Size(), req.Planes)
	if err != nil {
		t.Fatal(err)
	}
	tput, timeNS, bound := rec.Planes()
	tput[0] *= 1 + 1.0/1024
	if rec, err = sweep.EncodePlanes(k.Name, tput, timeNS, bound); err != nil {
		t.Fatal(err)
	}
	req.Planes = rec.Packed()
	req.Digest = sweep.RecordDigest(rec)
	return req
}

// TestVersionHandshakeFencesOverHTTP: a worker speaking the wrong
// protocol (or no protocol at all — a pre-attestation binary sends
// the empty string) is fenced with a typed 409 before touching lease
// state, and a matching handshake is granted work.
func TestVersionHandshakeFencesOverHTTP(t *testing.T) {
	clk := newTestClock()
	c := newTestCoordinator(t, t.TempDir(), clk)
	defer c.Close()
	if err := c.AddJob(withJournal(t, c.dir, testJob(t, "j", 1))); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	post := func(req acquireRequest) (int, errorBody) {
		t.Helper()
		b, _ := json.Marshal(req)
		resp, err := http.Post(srv.URL+"/v1/dist/lease", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb) //nolint:errcheck // only set on errors
		return resp.StatusCode, eb
	}

	// Old binary: empty proto and fingerprint.
	status, eb := post(acquireRequest{Worker: "old"})
	if status != http.StatusConflict || eb.Code != "version-mismatch" {
		t.Fatalf("pre-attestation acquire: status %d code %q, want 409 version-mismatch", status, eb.Code)
	}
	// Earlier protocols: /4 leased one row per call and would misread a
	// batch; /5 attests rows with journal v2 digests, which no later
	// coordinator computes; /6 sends its completes as JSON, which a /7
	// coordinator refuses.
	for _, proto := range []string{"gpuscale-dist/4", "gpuscale-dist/5", "gpuscale-dist/6"} {
		status, eb = post(acquireRequest{Worker: "old", Proto: proto, Fingerprint: EngineFingerprint()})
		if status != http.StatusConflict || eb.Code != "version-mismatch" {
			t.Fatalf("%s acquire: status %d code %q, want 409 version-mismatch", proto, status, eb.Code)
		}
	}
	// Right protocol, wrong engine fingerprint (a stale build).
	status, eb = post(acquireRequest{Worker: "stale", Proto: ProtoVersion, Fingerprint: "deadbeef"})
	if status != http.StatusConflict || eb.Code != "version-mismatch" {
		t.Fatalf("wrong-fingerprint acquire: status %d code %q, want 409 version-mismatch", status, eb.Code)
	}
	if !strings.Contains(eb.Error, ProtoVersion) {
		t.Fatalf("fence error should name the coordinator's protocol: %q", eb.Error)
	}
	// A fenced worker never consumed lease state: a healthy handshake
	// still gets the first grant at epoch 1.
	l, err := first(c.acquire(acq("healthy")))
	if err != nil || l == nil || l.Epoch != 1 {
		t.Fatalf("healthy acquire after fences: %+v %v", l, err)
	}
	// In-process surface agrees with the HTTP one.
	if _, err := first(c.acquire(acquireRequest{Worker: "old"})); !errors.Is(err, errVersionMismatch) {
		t.Fatalf("direct acquire with bad handshake: %v", err)
	}
}

// TestBadAttestationRejected: a digest that does not hash the shipped
// planes is a 400-class refusal — the planes never reach the matrix,
// and the row stays completable.
func TestBadAttestationRejected(t *testing.T) {
	clk := newTestClock()
	c := newTestCoordinator(t, t.TempDir(), clk)
	defer c.Close()
	if err := c.AddJob(withJournal(t, c.dir, testJob(t, "j", 1))); err != nil {
		t.Fatal(err)
	}
	l, _ := first(c.acquire(acq("w1")))

	req := okComplete(t, l, "w1")
	req.Rows[0].Digest = "0000000000000000"
	if _, err := one(c.complete(req)); !errors.Is(err, errBadAttest) {
		t.Fatalf("mismatched digest should be rejected as bad attestation, got %v", err)
	}
	st, _ := c.Status("j")
	if st.Done != 0 {
		t.Fatalf("rejected attestation must not mark the row done: %+v", st)
	}
	// The same worker retrying with a truthful attestation lands.
	if resp, err := one(c.complete(okComplete(t, l, "w1"))); err != nil || resp.Duplicate {
		t.Fatalf("honest complete after rejected attestation: %+v %v", resp, err)
	}
}

// TestSampledRowSettlesByIndependentAgreement: with VerifyFraction 1
// the first complete is held as a vote (PendingVerify), the voter is
// blocked from re-acquiring its own row, and a second worker's
// matching digest settles the row verified.
func TestSampledRowSettlesByIndependentAgreement(t *testing.T) {
	clk := newTestClock()
	c, err := NewCoordinator(t.TempDir(), CoordinatorOptions{DefaultTTL: testTTL, now: clk.now, VerifyFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.AddJob(withJournal(t, c.dir, testJob(t, "j", 1))); err != nil {
		t.Fatal(err)
	}

	l1, _ := first(c.acquire(acq("w1")))
	resp, err := one(c.complete(okComplete(t, l1, "w1")))
	if err != nil || !resp.PendingVerify || resp.Verified {
		t.Fatalf("sampled first complete should be held pending: %+v %v", resp, err)
	}
	st, _ := c.Status("j")
	if st.Done != 0 || st.Verifying != 1 {
		t.Fatalf("pending row should count as verifying: %+v", st)
	}
	// The voter cannot verify itself while the grace window is open.
	if l, err := first(c.acquire(acq("w1"))); err != nil || l != nil {
		t.Fatalf("voter re-acquiring its own pending row: %+v %v", l, err)
	}
	// An independent worker can, and its agreement settles the row.
	l2, err := first(c.acquire(acq("w2")))
	if err != nil || l2 == nil || l2.Row != l1.Row {
		t.Fatalf("independent worker should get the pending row: %+v %v", l2, err)
	}
	resp, err = one(c.complete(okComplete(t, l2, "w2")))
	if err != nil || !resp.Verified || resp.PendingVerify {
		t.Fatalf("agreeing second complete should settle verified: %+v %v", resp, err)
	}
	st, _ = c.Status("j")
	if !st.Complete || st.Verifying != 0 {
		t.Fatalf("settled job status: %+v", st)
	}
	if q := quarantinedWorkers(c); len(q) != 0 {
		t.Fatalf("agreement must not quarantine anyone: %v", q)
	}
	recs, err := ReadLedger(c.LedgerPath())
	if err != nil {
		t.Fatal(err)
	}
	audit, err := AuditLedger(recs)
	if err != nil {
		t.Fatalf("ledger audit: %v", err)
	}
	if audit.Verified != 1 || audit.Completes != 1 {
		t.Fatalf("audit should count one verified complete: %+v", audit)
	}
}

// TestSingleWorkerGraceSettlesUnverified: a one-worker fleet must not
// deadlock on its own verification sample — after 2xTTL with no
// independent voter, the same worker's re-executed matching digest is
// accepted, explicitly unverified.
func TestSingleWorkerGraceSettlesUnverified(t *testing.T) {
	clk := newTestClock()
	c, err := NewCoordinator(t.TempDir(), CoordinatorOptions{DefaultTTL: testTTL, now: clk.now, VerifyFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.AddJob(withJournal(t, c.dir, testJob(t, "j", 1))); err != nil {
		t.Fatal(err)
	}

	l1, _ := first(c.acquire(acq("solo")))
	if resp, err := one(c.complete(okComplete(t, l1, "solo"))); err != nil || !resp.PendingVerify {
		t.Fatalf("first complete should be held: %+v %v", resp, err)
	}
	if l, _ := first(c.acquire(acq("solo"))); l != nil {
		t.Fatal("grace window still open: solo must not re-acquire yet")
	}
	clk.advance(2 * time.Second)
	l2, err := first(c.acquire(acq("solo")))
	if err != nil || l2 == nil {
		t.Fatalf("grace elapsed: solo should re-acquire, got %+v %v", l2, err)
	}
	resp, err := one(c.complete(okComplete(t, l2, "solo")))
	if err != nil || resp.Verified || resp.PendingVerify {
		t.Fatalf("grace revote should settle unverified: %+v %v", resp, err)
	}
	st, _ := c.Status("j")
	if !st.Complete {
		t.Fatalf("job should be complete: %+v", st)
	}
}

// TestDissentStrikesAndQuarantines is the byzantine headline in
// miniature: a liar's vote loses to two agreeing honest workers, the
// liar is quarantined (live lease revoked, future calls rejected),
// and the fleet still converges to the single-node bytes.
func TestDissentStrikesAndQuarantines(t *testing.T) {
	clk := newTestClock()
	quarantined := make([]string, 0, 1)
	c, err := NewCoordinator(t.TempDir(), CoordinatorOptions{DefaultTTL: testTTL, now: clk.now, VerifyFraction: 1,
		OnQuarantine: func(w string) { quarantined = append(quarantined, w) }})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	job := withJournal(t, c.dir, testJob(t, "j", 2))
	want := singleNodeCanonical(t, job)
	if err := c.AddJob(job); err != nil {
		t.Fatal(err)
	}

	// The liar votes a tampered digest on row 0, then takes (and holds)
	// a live lease on row 1.
	lr0, _ := first(c.acquire(acq("liar")))
	if resp, err := one(c.complete(tamperedComplete(t, lr0, "liar"))); err != nil || !resp.PendingVerify {
		t.Fatalf("tampered vote should be held pending: %+v %v", resp, err)
	}
	lr1, err := first(c.acquire(acq("liar")))
	if err != nil || lr1 == nil || lr1.Row == lr0.Row {
		t.Fatalf("liar should lease the other row: %+v %v", lr1, err)
	}

	// First honest worker dissents from the liar; no agreement yet.
	h1r0, _ := first(c.acquire(acq("h1")))
	if h1r0 == nil || h1r0.Row != lr0.Row {
		t.Fatalf("h1 should get the pending row, got %+v", h1r0)
	}
	if resp, err := one(c.complete(okComplete(t, h1r0, "h1"))); err != nil || !resp.PendingVerify {
		t.Fatalf("lone honest dissent should stay pending: %+v %v", resp, err)
	}
	// Second honest worker agrees with h1: the row settles verified and
	// the liar's dissenting vote is a proven lie — one strike, and the
	// first proven lie quarantines.
	h2r0, _ := first(c.acquire(acq("h2")))
	if h2r0 == nil || h2r0.Row != lr0.Row {
		t.Fatalf("h2 should get the pending row, got %+v", h2r0)
	}
	resp, err := one(c.complete(okComplete(t, h2r0, "h2")))
	if err != nil || !resp.Verified {
		t.Fatalf("two agreeing honest workers should settle verified: %+v %v", resp, err)
	}

	if q := quarantinedWorkers(c); len(q) != 1 || q[0] != "liar" {
		t.Fatalf("liar should be quarantined, got %v", q)
	}
	if len(quarantined) != 1 || quarantined[0] != "liar" {
		t.Fatalf("OnQuarantine hook saw %v", quarantined)
	}
	// Every surface rejects the quarantined worker.
	if _, err := first(c.acquire(acq("liar"))); !errors.Is(err, errQuarantined) {
		t.Fatalf("quarantined acquire: %v", err)
	}
	if _, err := renewOne(c, lr1, "liar"); !errors.Is(err, errQuarantined) {
		t.Fatalf("quarantined renew: %v", err)
	}
	if _, err := one(c.complete(okComplete(t, lr1, "liar"))); !errors.Is(err, errQuarantined) {
		t.Fatalf("quarantined complete: %v", err)
	}

	// The liar's live lease on row 1 was revoked at quarantine: an
	// honest worker gets it immediately, without waiting out the TTL.
	h1r1, err := first(c.acquire(acq("h1")))
	if err != nil || h1r1 == nil || h1r1.Row != lr1.Row {
		t.Fatalf("revoked lease should re-grant immediately: %+v %v", h1r1, err)
	}
	if resp, err := one(c.complete(okComplete(t, h1r1, "h1"))); err != nil || !resp.PendingVerify {
		t.Fatalf("row 1 first honest vote: %+v %v", resp, err)
	}
	h2r1, _ := first(c.acquire(acq("h2")))
	if h2r1 == nil || h2r1.Row != lr1.Row {
		t.Fatalf("h2 should get row 1, got %+v", h2r1)
	}
	if resp, err := one(c.complete(okComplete(t, h2r1, "h2"))); err != nil || !resp.Verified {
		t.Fatalf("row 1 settlement: %+v %v", resp, err)
	}

	// Byte-identity survived the lie.
	assertMatrixCanonical(t, c, job, want)

	recs, err := ReadLedger(c.LedgerPath())
	if err != nil {
		t.Fatal(err)
	}
	audit, err := AuditLedger(recs)
	if err != nil {
		t.Fatalf("ledger audit: %v", err)
	}
	if len(audit.Quarantines) != 1 {
		t.Fatalf("audit should name one quarantine, got %+v", audit.Quarantines)
	}
	q := audit.Quarantines[0]
	if q.Worker != "liar" || q.Job != "j" || q.Row != lr0.Row || q.Digest == "" {
		t.Fatalf("quarantine record should name worker, row and digest: %+v", q)
	}
	if len(audit.Strikes) != 1 || audit.Strikes[0].Worker != "liar" {
		t.Fatalf("audit strikes: %+v", audit.Strikes)
	}
}

// TestQuarantineInvalidatesUnverifiedRows: a quarantined worker's
// earlier unsampled (accepted-on-its-word) rows are retracted, zeroed
// and re-executed by healthy workers — so a lie that slipped past the
// sample still never reaches the final matrix.
func TestQuarantineInvalidatesUnverifiedRows(t *testing.T) {
	clk := newTestClock()
	// A seed whose 50% verification sample excludes row 0 but includes
	// row 1 — so the liar's row 0 is accepted unverified and its row 1
	// lie is caught by the sample.
	seed := splitSeed(t)
	c, err := NewCoordinator(t.TempDir(), CoordinatorOptions{DefaultTTL: testTTL, now: clk.now, VerifyFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	job := testJob(t, "j", 2)
	job.Seed = seed
	want := singleNodeCanonical(t, job)
	if err := c.AddJob(withJournal(t, c.dir, job)); err != nil {
		t.Fatal(err)
	}

	// Row 0 (unsampled): the tampered complete is accepted on the
	// liar's word alone.
	lr0, _ := first(c.acquire(acq("liar")))
	if lr0.Row != 0 {
		t.Fatalf("expected row 0 first, got %d", lr0.Row)
	}
	if resp, err := one(c.complete(tamperedComplete(t, lr0, "liar"))); err != nil || resp.Verified || resp.PendingVerify {
		t.Fatalf("unsampled tampered complete should be accepted unverified: %+v %v", resp, err)
	}
	// Row 1 (sampled): the lie goes to a vote and loses to two honest
	// workers — quarantine, which retracts row 0.
	lr1, _ := first(c.acquire(acq("liar")))
	if resp, err := one(c.complete(tamperedComplete(t, lr1, "liar"))); err != nil || !resp.PendingVerify {
		t.Fatalf("sampled tampered complete should be held: %+v %v", resp, err)
	}
	h1r1, _ := first(c.acquire(acq("h1")))
	if h1r1 == nil || h1r1.Row != 1 {
		t.Fatalf("h1 should get row 1, got %+v", h1r1)
	}
	if _, err := one(c.complete(okComplete(t, h1r1, "h1"))); err != nil {
		t.Fatal(err)
	}
	h2r1, _ := first(c.acquire(acq("h2")))
	if h2r1 == nil || h2r1.Row != 1 {
		t.Fatalf("h2 should get row 1, got %+v", h2r1)
	}
	if resp, err := one(c.complete(okComplete(t, h2r1, "h2"))); err != nil || !resp.Verified {
		t.Fatalf("row 1 settlement: %+v %v", resp, err)
	}

	if q := quarantinedWorkers(c); len(q) != 1 || q[0] != "liar" {
		t.Fatalf("liar should be quarantined, got %v", q)
	}
	st, _ := c.Status("j")
	if st.Done != 1 || st.Verifying != 1 {
		t.Fatalf("row 0 should be retracted and pending again: %+v", st)
	}

	// Healthy workers re-execute the retracted row. The liar's seeded
	// claim dissents, so settlement still takes two honest voters.
	for _, w := range []string{"h1", "h2"} {
		l, err := first(c.acquire(acq(w)))
		if err != nil || l == nil || l.Row != 0 {
			t.Fatalf("%s should get retracted row 0: %+v %v", w, l, err)
		}
		if _, err := one(c.complete(okComplete(t, l, w))); err != nil {
			t.Fatal(err)
		}
	}
	assertMatrixCanonical(t, c, job, want)

	recs, err := ReadLedger(c.LedgerPath())
	if err != nil {
		t.Fatal(err)
	}
	audit, err := AuditLedger(recs)
	if err != nil {
		t.Fatalf("ledger audit: %v", err)
	}
	if len(audit.Invalidations) != 1 {
		t.Fatalf("audit should name one invalidation, got %+v", audit.Invalidations)
	}
	inv := audit.Invalidations[0]
	if inv.Job != "j" || inv.Row != 0 || inv.Worker != "liar" || inv.Digest == "" {
		t.Fatalf("invalidation should name the retracted row and claim: %+v", inv)
	}
}

// TestOnRowHearsAcceptThenRetraction: a quarantine retracts a row the
// coordinator accepted on the liar's word. OnRow hears the accept, with
// the row journaled, and then the retraction, with the row no longer
// journaled, in that order and once each.
func TestOnRowHearsAcceptThenRetraction(t *testing.T) {
	clk := newTestClock()
	c, err := NewCoordinator(t.TempDir(), CoordinatorOptions{DefaultTTL: testTTL, now: clk.now, VerifyFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var row0 []bool // what OnRow heard of row 0, in order
	job := testJob(t, "j", 2)
	job.Seed = splitSeed(t) // row 0 outside the sample, row 1 inside
	job.OnRow = func(r int, journaled bool) {
		if r == 0 {
			row0 = append(row0, journaled)
		}
	}
	if err := c.AddJob(withJournal(t, c.dir, job)); err != nil {
		t.Fatal(err)
	}
	lr0, _ := first(c.acquire(acq("liar")))
	if resp, err := one(c.complete(tamperedComplete(t, lr0, "liar"))); err != nil || lr0.Row != 0 || resp.PendingVerify {
		t.Fatalf("row 0 should be accepted on the liar's word: %+v %v", resp, err)
	}
	if !slices.Equal(row0, []bool{true}) {
		t.Fatalf("OnRow heard %v of row 0 on its accept, want one journaled row", row0)
	}
	// Row 1's lie loses the vote to two honest workers: quarantine,
	// which retracts row 0.
	lr1, _ := first(c.acquire(acq("liar")))
	if resp, err := one(c.complete(tamperedComplete(t, lr1, "liar"))); err != nil || !resp.PendingVerify {
		t.Fatalf("sampled tampered complete should be held: %+v %v", resp, err)
	}
	for _, h := range []string{"h1", "h2"} {
		l, err := first(c.acquire(acq(h)))
		if err != nil || l == nil || l.Row != 1 {
			t.Fatalf("%s should get row 1: %+v %v", h, l, err)
		}
		if _, err := one(c.complete(okComplete(t, l, h))); err != nil {
			t.Fatal(err)
		}
	}
	if q := quarantinedWorkers(c); len(q) != 1 || q[0] != "liar" {
		t.Fatalf("liar should be quarantined, got %v", q)
	}
	if !slices.Equal(row0, []bool{true, false}) {
		t.Fatalf("OnRow heard %v of row 0, want its accept (journaled) and then its retraction (not)", row0)
	}
}

// TestReplayedStrikeQuarantines: a crash between a strike record and
// its quarantine record leaves a ledger that names the liar only in
// the strike. The first proven lie quarantines, so replay fences the
// liar on the strike alone: after the restart its acquire is refused,
// and an honest worker gets the open row.
func TestReplayedStrikeQuarantines(t *testing.T) {
	dir := t.TempDir()
	clk := newTestClock()
	open := func() *Coordinator {
		t.Helper()
		c, err := NewCoordinator(dir, CoordinatorOptions{DefaultTTL: testTTL, now: clk.now, VerifyFraction: 1})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := open()
	job := withJournal(t, dir, testJob(t, "j", 2))
	if err := c.AddJob(job); err != nil {
		t.Fatal(err)
	}
	lr, _ := first(c.acquire(acq("liar")))
	if resp, err := one(c.complete(tamperedComplete(t, lr, "liar"))); err != nil || !resp.PendingVerify {
		t.Fatalf("tampered vote: %+v %v", resp, err)
	}
	for _, h := range []string{"h1", "h2"} {
		l, err := first(c.acquire(acq(h)))
		if err != nil || l == nil || l.Row != lr.Row {
			t.Fatalf("%s should get the liar's row: %+v %v", h, l, err)
		}
		if _, err := one(c.complete(okComplete(t, l, h))); err != nil {
			t.Fatal(err)
		}
	}
	if q := quarantinedWorkers(c); len(q) != 1 || q[0] != "liar" {
		t.Fatalf("liar should be quarantined, got %v", q)
	}
	c.Close()

	// The crash: the ledger ends where the quarantine record began.
	data, err := os.ReadFile(c.LedgerPath())
	if err != nil {
		t.Fatal(err)
	}
	off := int64(len(ledgerMagic))
	for {
		rec, next, ok := parseLedgerRecord(data, off)
		if !ok {
			t.Fatal("the ledger holds no quarantine record")
		}
		if rec.Kind == "quarantine" {
			break
		}
		off = next
	}
	if err := os.Truncate(c.LedgerPath(), off); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadLedger(c.LedgerPath())
	if err != nil || recs[len(recs)-1].Kind != "strike" || recs[len(recs)-1].Worker != "liar" {
		t.Fatalf("the cut ledger should end in the liar's strike: %v", err)
	}

	c = open()
	defer c.Close()
	if err := c.AddJob(reopened(t, dir, job)); err != nil {
		t.Fatal(err)
	}
	if l, err := first(c.acquire(acq("liar"))); !errors.Is(err, errQuarantined) {
		t.Fatalf("a replayed strike should fence the liar: granted %v, error %v", l != nil, err)
	}
	if l, err := first(c.acquire(acq("h3"))); err != nil || l == nil || l.Row == lr.Row {
		t.Fatalf("an honest worker should get the open row: %+v %v", l, err)
	}
}

// TestIntegrityPlaneRecoveredAcrossRestarts: open votes, strikes and
// quarantine membership all survive coordinator crashes — at every
// stage of a verification flow.
func TestIntegrityPlaneRecoveredAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	clk := newTestClock()
	open := func() *Coordinator {
		t.Helper()
		c, err := NewCoordinator(dir, CoordinatorOptions{DefaultTTL: testTTL, now: clk.now, VerifyFraction: 1})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	job := testJob(t, "j", 1)
	want := singleNodeCanonical(t, job)

	// Stage 1: the liar's tampered vote, then crash.
	c := open()
	job = withJournal(t, dir, job)
	if err := c.AddJob(job); err != nil {
		t.Fatal(err)
	}
	lr, _ := first(c.acquire(acq("liar")))
	if resp, err := one(c.complete(tamperedComplete(t, lr, "liar"))); err != nil || !resp.PendingVerify {
		t.Fatalf("tampered vote: %+v %v", resp, err)
	}
	c.Close()

	// Stage 2: the vote is restored; the voter stays blocked, an
	// independent worker dissents. Recovery conservatively re-extends
	// the liar's recovered grant by a fresh TTL from reopen time, so
	// wait it out before another worker can take the row.
	c = open()
	job = reopened(t, dir, job)
	if err := c.AddJob(job); err != nil {
		t.Fatal(err)
	}
	clk.advance(1100 * time.Millisecond)
	if st, _ := c.Status("j"); st.Verifying != 1 {
		t.Fatalf("pending vote lost across restart: %+v", st)
	}
	if l, _ := first(c.acquire(acq("liar"))); l != nil {
		t.Fatal("restored voter must stay blocked from its own row")
	}
	h1, err := first(c.acquire(acq("h1")))
	if err != nil || h1 == nil {
		t.Fatalf("independent worker should get the row: %+v %v", h1, err)
	}
	if resp, err := one(c.complete(okComplete(t, h1, "h1"))); err != nil || !resp.PendingVerify {
		t.Fatalf("honest dissent should stay pending: %+v %v", resp, err)
	}
	c.Close()

	// Stage 3: both votes restored; a second honest worker settles the
	// row, which proves the liar's restored vote a lie — strike and
	// quarantine, all from replayed state.
	c = open()
	job = reopened(t, dir, job)
	if err := c.AddJob(job); err != nil {
		t.Fatal(err)
	}
	clk.advance(1100 * time.Millisecond)
	h2, err := first(c.acquire(acq("h2")))
	if err != nil || h2 == nil {
		t.Fatalf("h2 acquire: %+v %v", h2, err)
	}
	if resp, err := one(c.complete(okComplete(t, h2, "h2"))); err != nil || !resp.Verified {
		t.Fatalf("settlement from restored votes: %+v %v", resp, err)
	}
	if q := quarantinedWorkers(c); len(q) != 1 || q[0] != "liar" {
		t.Fatalf("quarantine from restored vote: %v", q)
	}
	c.Close()

	// Stage 4: quarantine membership itself is durable.
	c = open()
	defer c.Close()
	job = reopened(t, dir, job)
	if err := c.AddJob(job); err != nil {
		t.Fatal(err)
	}
	if q := quarantinedWorkers(c); len(q) != 1 || q[0] != "liar" {
		t.Fatalf("quarantine lost across restart: %v", q)
	}
	if _, err := first(c.acquire(acq("liar"))); !errors.Is(err, errQuarantined) {
		t.Fatalf("restored quarantine should fence acquires: %v", err)
	}
	assertMatrixCanonical(t, c, job, want)
	recs, err := ReadLedger(c.LedgerPath())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AuditLedger(recs); err != nil {
		t.Fatalf("ledger audit after restarts: %v", err)
	}
}

// TestVerifySelectedProperties: the sample is deterministic, honours
// the 0/1 endpoints, is monotone in the fraction, and lands near the
// requested rate.
func TestVerifySelectedProperties(t *testing.T) {
	for row := 0; row < 100; row++ {
		if verifySelected(42, row, 0) {
			t.Fatalf("fraction 0 selected row %d", row)
		}
		if !verifySelected(42, row, 1) {
			t.Fatalf("fraction 1 skipped row %d", row)
		}
		if verifySelected(42, row, 0.3) != verifySelected(42, row, 0.3) {
			t.Fatalf("selection not deterministic at row %d", row)
		}
		if verifySelected(42, row, 0.2) && !verifySelected(42, row, 0.6) {
			t.Fatalf("selection not monotone in fraction at row %d", row)
		}
	}
	const n = 20000
	picked := 0
	for row := 0; row < n; row++ {
		if verifySelected(7, row, 0.25) {
			picked++
		}
	}
	if rate := float64(picked) / n; rate < 0.22 || rate > 0.28 {
		t.Fatalf("sample rate %.3f far from requested 0.25", rate)
	}
}

// splitSeed finds a job seed whose 50% verification sample excludes
// row 0 and includes row 1 — the shape the invalidation test needs.
func splitSeed(t *testing.T) int64 {
	t.Helper()
	for s := int64(0); s < 10000; s++ {
		if !verifySelected(s, 0, 0.5) && verifySelected(s, 1, 0.5) {
			return s
		}
	}
	t.Fatal("no splitting seed in range")
	return 0
}

// assertMatrixCanonical checks a complete job's journal renders to the
// given canonical journal bytes.
func assertMatrixCanonical(t *testing.T, c *Coordinator, job Job, want []byte) {
	t.Helper()
	got, ok := completeJournal(t, c, job.Name)
	if !ok {
		t.Fatal("job should be complete")
	}
	if !bytes.Equal(want, got) {
		t.Fatal("journal differs from single-node run")
	}
}

// TestAuditLedgerIntegrityInvariants drives the offline auditor over
// hand-built ledgers, one rule at a time: the integrity-plane record
// kinds must obey grant/complete causality, quarantine must be
// terminal, and only a deliberate early release excuses an epoch
// overlap.
func TestAuditLedgerIntegrityInvariants(t *testing.T) {
	grant := func(row int, epoch uint64, worker string, granted, expiry int64, early bool) LedgerRecord {
		return LedgerRecord{Kind: "grant", Job: "j", Row: row, Epoch: epoch, Worker: worker,
			GrantedNS: granted, ExpiryNS: expiry, Early: early}
	}
	rec := func(kind string, row int, epoch uint64, worker string) LedgerRecord {
		return LedgerRecord{Kind: kind, Job: "j", Row: row, Epoch: epoch, Worker: worker, Digest: "d"}
	}
	cases := []struct {
		name string
		recs []LedgerRecord
		want string // substring of the audit error; "" means must pass
	}{
		{"early release excuses overlap", []LedgerRecord{
			grant(0, 1, "a", 0, 100, false),
			grant(0, 2, "b", 50, 150, true),
			rec("complete", 0, 2, "b"),
		}, ""},
		{"overlap without early rejected", []LedgerRecord{
			grant(0, 1, "a", 0, 100, false),
			grant(0, 2, "b", 50, 150, false),
		}, "before epoch"},
		{"complete twice without invalidate", []LedgerRecord{
			grant(0, 1, "a", 0, 100, false),
			rec("complete", 0, 1, "a"),
			rec("complete", 0, 1, "a"),
		}, "completed twice"},
		{"invalidate then recomplete passes", []LedgerRecord{
			grant(0, 1, "a", 0, 100, false),
			rec("complete", 0, 1, "a"),
			rec("quarantine", 0, 1, "a"),
			rec("invalidate", 0, 1, "a"),
			grant(0, 2, "b", 50, 150, true),
			rec("complete", 0, 2, "b"),
		}, ""},
		{"invalidate of a never-completed row", []LedgerRecord{
			grant(0, 1, "a", 0, 100, false),
			rec("invalidate", 0, 1, "a"),
		}, "invalidated while not complete"},
		{"attest under never-granted epoch", []LedgerRecord{
			rec("attest", 0, 3, "a"),
		}, "never-granted"},
		{"attest by quarantined worker", []LedgerRecord{
			grant(0, 1, "a", 0, 100, false),
			rec("quarantine", 0, 1, "a"),
			rec("attest", 0, 1, "a"),
		}, "attested by quarantined"},
		{"complete by quarantined worker", []LedgerRecord{
			grant(0, 1, "a", 0, 100, false),
			rec("quarantine", 0, 1, "a"),
			rec("complete", 0, 1, "a"),
		}, "completed by quarantined"},
		{"strike without worker", []LedgerRecord{
			{Kind: "strike", Job: "j"},
		}, "strike record without a worker"},
		{"quarantine without worker", []LedgerRecord{
			{Kind: "quarantine", Job: "j"},
		}, "quarantine record without a worker"},
		{"unknown kind", []LedgerRecord{
			{Kind: "bribe", Job: "j"},
		}, "unknown record kind"},
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
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("audit error %v should contain %q", err, tc.want)
			}
		})
	}
}

// v2Row is row l's journal v2 record — its JSON object, as journal v2
// wrote it — and the digest a pre-v3 worker attested it with: FNV-64a
// over that record, as 16 bare hex digits.
func v2Row(t *testing.T, l *Lease) (record []byte, digest string) {
	t.Helper()
	k, err := l.DecodeKernel()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sweep.PackedRecord(k.Name, l.Space.Size(), okRow(t, l).Planes)
	if err != nil {
		t.Fatal(err)
	}
	tput, timeNS, bound := rec.Planes()
	record, err = json.Marshal(struct {
		Kernel string      `json:"kernel"`
		Tput   []float64   `json:"tput"`
		TimeNS []float64   `json:"time_ns"`
		Bound  []gcn.Bound `json:"bound"`
	}{k.Name, tput, timeNS, bound})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(record)
	return record, fmt.Sprintf("%016x", h.Sum64())
}

// TestUpgradeDropsV2DigestVotes: a ledger a pre-v3 coordinator left
// holds digests of the v2 record format. Row 0 was completed, and its
// record is in the job's (v3) journal, but its ledgered digest is a v2
// one; row 1 is open and sampled, and the ledger holds an honest
// worker's vote on it under its v2 digest, which no worker computes any
// more. At registration row 0 is re-digested from the journal, and
// replay drops the v2 vote: two honest workers settle row 1 verified,
// nobody is quarantined for a digest of another format, the journal is
// the single-node run's and the ledger audits clean.
func TestUpgradeDropsV2DigestVotes(t *testing.T) {
	dir := t.TempDir()
	clk := newTestClock()
	job := testJob(t, "j", 2)
	want := singleNodeCanonical(t, job)

	// What a pre-v3 coordinator left: its term, row 0 granted to "old"
	// and completed, row 1 granted to "old" and held as its vote, and
	// the job's journal holding row 0.
	c := newTestCoordinator(t, t.TempDir(), clk)
	if err := c.AddJob(withJournal(t, t.TempDir(), job)); err != nil {
		t.Fatal(err)
	}
	l0, _ := first(c.acquire(acq("old")))
	l1, _ := first(c.acquire(acq("old2")))
	c.Close()
	_, digest0 := v2Row(t, l0)
	_, digest1 := v2Row(t, l1)
	m, err := sweep.Run(job.Kernels, job.Space, sweep.Options{NoiseStdDev: job.NoiseStdDev, Seed: job.Seed})
	if err != nil {
		t.Fatal(err)
	}
	old := withJournal(t, dir, job)
	if err := old.Journal.AppendRow(m, 0); err != nil {
		t.Fatal(err)
	}
	now := clk.now()
	grant := func(row int) LedgerRecord {
		return LedgerRecord{Kind: "grant", Job: "j", Row: row, Epoch: 1, Worker: "old", Term: 1,
			GrantedNS: now.UnixNano(), ExpiryNS: now.Add(testTTL).UnixNano()}
	}
	ledger := []byte(ledgerMagic)
	for _, r := range []LedgerRecord{
		{Kind: "term", Worker: "coordinator", Term: 1, GrantedNS: now.UnixNano()},
		grant(0),
		{Kind: "complete", Job: "j", Row: 0, Epoch: 1, Worker: "old", Term: 1, Digest: digest0},
		grant(1),
		{Kind: "attest", Job: "j", Row: 1, Epoch: 1, Worker: "old", Term: 1, Digest: digest1},
	} {
		framed, err := frameRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		ledger = append(ledger, framed...)
	}
	if err := os.WriteFile(filepath.Join(dir, "lease.ledger"), ledger, 0o644); err != nil {
		t.Fatal(err)
	}

	c, err = NewCoordinator(dir, CoordinatorOptions{DefaultTTL: testTTL, now: clk.now, VerifyFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	job = reopened(t, dir, old)
	if err := c.AddJob(job); err != nil {
		t.Fatal(err)
	}
	prior := job.Journal.Prior()
	d0, err := sweep.RowDigest(prior, prior.Row(job.Kernels[0].Name))
	c.mu.Lock()
	rs0 := c.jobs[job.Name].rows[0]
	c.mu.Unlock()
	if err != nil || !rs0.done || rs0.digest != d0 {
		t.Fatalf("journaled row 0: done %v digest %q, want its v3 digest %q (%v)", rs0.done, rs0.digest, d0, err)
	}
	clk.advance(1100 * time.Millisecond) // past the recovered grant
	h1, err := first(c.acquire(acq("h1")))
	if err != nil || h1 == nil || h1.Row != 1 {
		t.Fatalf("h1 acquire: %+v %v", h1, err)
	}
	if resp, err := one(c.complete(okComplete(t, h1, "h1"))); err != nil || !resp.PendingVerify {
		t.Fatalf("the first honest vote on the sampled row should be held: %+v %v", resp, err)
	}
	h2, err := first(c.acquire(acq("h2")))
	if err != nil || h2 == nil {
		t.Fatalf("h2 acquire: %+v %v", h2, err)
	}
	if resp, err := one(c.complete(okComplete(t, h2, "h2"))); err != nil || !resp.Verified {
		t.Fatalf("two honest workers should settle the row verified: %+v %v", resp, err)
	}
	if q := quarantinedWorkers(c); len(q) != 0 {
		t.Fatalf("quarantined %v for a vote of another digest format", q)
	}
	assertMatrixCanonical(t, c, job, want)
	recs, err := ReadLedger(c.LedgerPath())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AuditLedger(recs); err != nil {
		t.Fatalf("ledger audit across the upgrade: %v", err)
	}
}

// TestJournaledRowsReportReused: a job registered over a journal that
// already holds some of its rows — a job resumed after a restart or a
// failover — reports their cells as reused, as Resume does, and only
// the rows workers computed as measured.
func TestJournaledRowsReportReused(t *testing.T) {
	dir := t.TempDir()
	clk := newTestClock()
	c := newTestCoordinator(t, dir, clk)
	defer c.Close()
	job := withJournal(t, dir, testJob(t, "j", 3))
	m, err := sweep.Run(job.Kernels, job.Space, sweep.Options{NoiseStdDev: job.NoiseStdDev, Seed: job.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Journal.AppendRow(m, 1); err != nil {
		t.Fatal(err)
	}
	done := runInBackground(t, context.Background(), c, reopened(t, dir, job))
	for i := 0; i < 2; i++ {
		l, err := first(c.acquire(acq("w1")))
		if err != nil || l == nil || l.Row == 1 {
			t.Fatalf("acquire %d: %+v %v, want an unjournaled row", i, l, err)
		}
		if _, err := one(c.complete(okComplete(t, l, "w1"))); err != nil {
			t.Fatal(err)
		}
	}
	res := <-done
	n := job.Space.Size()
	if res.err != nil || !res.rep.Complete() || res.rep.Skipped != n || res.rep.OK != 2*n || res.rep.Attempts != 2*n {
		t.Fatalf("report %s (%v), want %d cells reused and %d measured", res.rep.Summary(), res.err, n, 2*n)
	}
}
