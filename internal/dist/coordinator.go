package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpuscale/internal/durable"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/obs"
	"gpuscale/internal/sweep"
)

// Job describes one sweep to distribute: the kernel rows, the space,
// and the noise/engine parameters every worker must reproduce
// exactly.
type Job struct {
	Name        string
	Kernels     []*kernel.Kernel
	Space       hw.Space
	Seed        int64
	NoiseStdDev float64
	Engine      sweep.Engine
	// Trace is the job's span context (usually minted by internal/serve
	// at admission). Every lease grant becomes a child span of it, so
	// one submission yields one stitched trace across the fleet. An
	// invalid (zero) context gets a fresh root at AddJob, so directly
	// registered jobs trace too.
	Trace obs.SpanContext
	// Journal is the job's journal, opened and closed by the job's owner
	// (required). AddJob recovers done rows from its Prior, and each
	// accepted complete is appended to it before the ack.
	Journal *sweep.Journal
	// OnRow, when non-nil, is invoked as each row's complete is
	// accepted (after the row is durably journaled), with the job's
	// matrix and the row index — the hook internal/serve keeps its live
	// snapshot current with. A settled row is assigned whole and never
	// written again, so OnRow may keep the row's slices: a quarantine
	// that retracts the row assigns a fresh all-canceled row and calls
	// OnRow again. Not invoked for rows recovered already-done from the
	// journal at AddJob. Called with the coordinator's lock held: it
	// must not call back into the Coordinator.
	OnRow func(m *sweep.Matrix, r int)
}

// CoordinatorOptions tunes a Coordinator; the zero value is usable.
type CoordinatorOptions struct {
	// DefaultTTL is how long a lease lives without renewal before it is
	// stolen, for every job; defaults to 10s.
	DefaultTTL time.Duration
	// Metrics receives lease/steal/complete counters; nil keeps them in
	// a private registry.
	Metrics *obs.Registry
	// Sink, when non-nil, receives lease lifecycle events (grants,
	// steals, fences, completes, requeues, votes, strikes) for the
	// process's trace and flight recorder, so a dead coordinator's last
	// moves are reconstructable from its ring.
	Sink *obs.Sink
	// OnWorker, when non-nil, is invoked whenever a worker's acquire
	// advertises a metrics URL — the hook gpuscaled uses to register
	// the worker with the metrics federation. Called outside the
	// coordinator lock; must be safe for concurrent use. Never invoked
	// for version-fenced or quarantined workers, so a fenced worker
	// cannot keep refreshing its federation target.
	OnWorker func(worker, metricsURL string)
	// VerifyFraction is the fraction of rows re-verified before they
	// are accepted: a selected row's first complete is held as a vote
	// and the row is immediately re-leased, preferring a different
	// worker; the row settles when two distinct workers agree on its
	// digest. The sample is a pure function of (job seed, row), so it
	// survives restarts. 0 disables re-verification; 1 verifies every
	// row.
	VerifyFraction float64
	// OnQuarantine, when non-nil, is invoked as a worker is
	// quarantined — the hook gpuscaled uses to drop the worker from
	// the metrics federation. Called with the coordinator lock held:
	// it must not call back into the Coordinator.
	OnQuarantine func(worker string)
	// ID names this coordinator in ledger term records, trace events
	// and /v1/ha/status; defaults to "coordinator".
	ID string
	// Peers are the other coordinators' base URLs (warm standbys, or
	// whoever replaced us). StartHA probes them: any peer asserting a
	// higher term means this coordinator was deposed.
	Peers []string
	// ReplTimeout bounds the synchronous append-before-ack barrier: how
	// long a grant or complete ack waits for the attached standby to
	// durably apply it before degrading to async replication. Defaults
	// to 1s.
	ReplTimeout time.Duration
	// SelfFenceAfter, when positive, steps the primary down if a
	// standby that had been tailing goes silent for this long — the
	// primary cannot tell a dead standby from a partition, and past the
	// promotion deadline it must assume the standby promoted on the
	// other side. 0 disables (solo coordinators never self-fence).
	SelfFenceAfter time.Duration
	// CheckEvery is the HA housekeeping cadence (peer probes,
	// self-fence checks, lag instruments). Defaults to 250ms.
	CheckEvery time.Duration
	// now is the clock seam for lease-expiry tests.
	now func() time.Time
	// initialTerm is the term a promoting standby asserts
	// (Standby.Promote sets it to replicated-term+1); NewCoordinator
	// adopts the larger of it and the ledger's recovered term.
	initialTerm uint64
}

// rowVote is one worker's re-verification claim about a row.
type rowVote struct {
	worker string
	digest string
	epoch  uint64
}

// rowState is the coordinator's in-memory view of one kernel row.
type rowState struct {
	epoch  uint64
	worker string
	expiry time.Time
	done   bool
	// term is the coordinator term the current epoch was granted under
	// — the second fencing factor renews and completes must echo. A
	// promoted coordinator recovers it from the grant record, so a
	// lease granted by the old primary (still within TTL) stays
	// renewable across the failover.
	term uint64
	// span is the current epoch's lease span ID; completes and fences
	// for this epoch parent their trace events under it.
	span string
	// digest/verified/completedBy describe the accepted complete:
	// the attested row digest, whether two independent workers agreed
	// on it, and who computed the accepted planes.
	digest      string
	verified    bool
	completedBy string
	// pending marks a row in the re-verification sample with open
	// votes; votes holds one claim per worker, lastVote the time the
	// most recent one landed (the revote-grace clock).
	pending  bool
	votes    []rowVote
	lastVote time.Time
	// releasedEarly marks that the current epoch was released before
	// its grant-time expiry by a deliberate coordinator action (a
	// requeue, a held vote, a quarantine revocation) — the next grant
	// records it so the ledger audit can tell an early re-grant from
	// an overlapping lease.
	releasedEarly bool
}

// jobState is one registered job's lease state and matrix.
type jobState struct {
	job    Job
	rows   []rowState
	matrix *sweep.Matrix
}

// Coordinator owns lease state for registered jobs and serves the
// /v1/dist lease protocol. Its durable state is the lease ledger in
// one directory (a job's journal belongs to the job's owner), so a new
// Coordinator on a crashed one's directory resumes it.
type Coordinator struct {
	dir string
	opt CoordinatorOptions
	now func() time.Time
	id  string
	// repl is the replication log a warm standby tails; always present
	// (a fleet with no standby just never drains it past the backlog).
	repl *replLog

	mu        sync.Mutex
	ledger    *durable.Log
	jobs      map[string]*jobState
	recovered *ledgerRecovery
	// term is this coordinator's reign, asserted in the ledger at
	// startup; every record and lease carries it. deposed flips once a
	// newer term is known to be live, after which every protocol call
	// is fenced.
	term      uint64
	deposed   bool
	deposedCh chan struct{}
	// quarantined is fleet-wide (cross-job) integrity state, recovered
	// from the ledger on restart.
	quarantined map[string]bool

	mGranted, mStolen, mCompleted, mDuplicate, mFenced, mRequeued            *obs.Counter
	mVersionFenced, mVerified, mMismatch, mQuarantined, mInvalid, mBadAttest *obs.Counter
	mTermFenced, mReplTimeouts                                               *obs.Counter
	mTerm, mReplLag                                                          *obs.Gauge
}

// NewCoordinator opens (or resumes) a coordinator rooted at dir. Lease
// epochs and completions are recovered from dir's ledger; per-job
// done-ness is recovered from each job's journal when the job is
// registered with AddJob.
func NewCoordinator(dir string, opt CoordinatorOptions) (*Coordinator, error) {
	if opt.DefaultTTL <= 0 {
		opt.DefaultTTL = 10 * time.Second
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dist: creating coordinator dir: %w", err)
	}
	led, rec, err := openLedger(filepath.Join(dir, "lease.ledger"))
	if err != nil {
		return nil, err
	}
	c := &Coordinator{dir: dir, opt: opt, ledger: led, jobs: map[string]*jobState{}, recovered: rec,
		quarantined: rec.quarantined, repl: newReplLog(), deposedCh: make(chan struct{})}
	c.now = opt.now
	if c.now == nil {
		c.now = time.Now
	}
	c.id = opt.ID
	if c.id == "" {
		c.id = "coordinator"
	}
	if c.opt.ReplTimeout <= 0 {
		c.opt.ReplTimeout = time.Second
	}
	if c.opt.CheckEvery <= 0 {
		c.opt.CheckEvery = 250 * time.Millisecond
	}
	// Adopt the reign: a crash-restart resumes the ledger's recovered
	// term; a promoting standby asserts its own, higher one; a fresh
	// ledger starts at 1. The term record is appended (and fsynced)
	// before any lease can be granted under it, so the ledger's term
	// history is complete by construction.
	c.term = rec.term
	if opt.initialTerm > c.term {
		c.term = opt.initialTerm
	}
	if c.term == 0 {
		c.term = 1
	}
	if c.term != rec.term {
		if err := c.logAppend(LedgerRecord{Kind: "term", Worker: c.id, GrantedNS: c.now().UnixNano()}); err != nil {
			led.Close()
			return nil, err
		}
	}
	// The instruments live in Options.Metrics, or a private registry.
	r := opt.Metrics
	if r == nil {
		r = obs.NewRegistry()
	}
	c.mGranted = r.Counter("dist_leases_granted_total", "Row leases granted, including steals.")
	c.mStolen = r.Counter("dist_leases_stolen_total", "Leases re-granted after expiry displaced an unfinished epoch.")
	c.mCompleted = r.Counter("dist_rows_completed_total", "Rows completed exactly once.")
	c.mDuplicate = r.Counter("dist_completes_duplicate_total", "Idempotent duplicate completes acknowledged.")
	c.mFenced = r.Counter("dist_completes_fenced_total", "Stale-epoch completes rejected by fencing.")
	c.mRequeued = r.Counter("dist_rows_requeued_total", "Not-OK completes that released a row for re-lease.")
	c.mVersionFenced = r.Counter("dist_workers_version_fenced_total", "Acquires rejected by the version/fingerprint handshake.")
	c.mVerified = r.Counter("dist_rows_verified_total", "Rows settled by independent digest agreement.")
	c.mMismatch = r.Counter("dist_verify_mismatches_total", "Re-verification votes whose digest lost — one strike each.")
	c.mQuarantined = r.Counter("dist_workers_quarantined_total", "Workers fenced fleet-wide after a proven lie.")
	c.mInvalid = r.Counter("dist_rows_invalidated_total", "Unverified completes retracted from quarantined workers.")
	c.mBadAttest = r.Counter("dist_completes_badattest_total", "OK completes rejected because the digest does not hash the shipped planes.")
	c.mTermFenced = r.Counter("dist_completes_term_fenced_total", "Renews and completes rejected because their lease belongs to a deposed coordinator's term.")
	c.mReplTimeouts = r.Counter("dist_repl_sync_timeouts_total", "Append-before-ack barriers that timed out waiting for the standby and degraded to async.")
	c.mTerm = r.Gauge("dist_ha_term", "Coordinator term this process believes is current.")
	c.mReplLag = r.Gauge("dist_repl_lag_records", "Replication-stream records the attached standby has not yet acknowledged.")
	c.mTerm.Set(float64(c.term))
	return c, nil
}

// Term returns the coordinator's current term.
func (c *Coordinator) Term() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.term
}

// Deposed returns a channel closed when this coordinator learns a
// newer term is live — the process-level signal to exit with the
// deposed code.
func (c *Coordinator) Deposed() <-chan struct{} { return c.deposedCh }

// stepDownLocked fences this coordinator permanently: a newer term is
// live somewhere, so nothing it grants or acks may reach the matrix
// again. Caller holds c.mu.
func (c *Coordinator) stepDownLocked(reason string) {
	if c.deposed {
		return
	}
	c.deposed = true
	close(c.deposedCh)
	c.opt.Sink.Emit("deposed", "dist", 0, obs.SpanContext{}, "", time.Now(), 0,
		obs.KS("coordinator", c.id), obs.KN("term", float64(c.term)), obs.KS("reason", reason))
}

// emit records an instant coordinator event on js's trace, parented
// under parent: the lease span of the row it concerns, or the job's
// own span.
func (c *Coordinator) emit(name string, js *jobState, parent string, kvs ...obs.KV) {
	c.opt.Sink.Emit(name, "dist", 0, obs.SpanContext{TraceID: js.job.Trace.TraceID}, parent, time.Now(), 0, kvs...)
}

// logAppend writes one record to the ledger under the current term
// and publishes its exact framed bytes to the replication stream.
// Caller holds c.mu (or has exclusive access during construction).
func (c *Coordinator) logAppend(rec LedgerRecord) error {
	rec.Term = c.term
	framed, err := frameRecord(rec)
	if err != nil {
		return err
	}
	if err := c.ledger.Append(framed); err != nil {
		return fmt.Errorf("dist: appending ledger record: %w", err)
	}
	c.repl.publish(replMsg{Kind: "rec", Frame: framed})
	return nil
}

// replBarrier is the synchronous half of append-before-ack: called
// after c.mu is released, it waits (bounded) for the attached standby
// to durably apply everything published so far. No standby attached
// means nothing to wait for; a timeout degrades to async and is
// surfaced on the instruments rather than failing the worker's call —
// the fencing rules absorb whatever a failover then loses.
func (c *Coordinator) replBarrier() {
	target := c.repl.latest()
	if !c.repl.waitAcked(target, c.opt.ReplTimeout) {
		c.mReplTimeouts.Inc()
	}
	c.mReplLag.Set(float64(c.repl.lag()))
}

// StartHA begins this coordinator's term bookkeeping against its
// peers: an immediate probe (a peer already asserting a higher term
// means we were deposed while down — return ErrDeposed now, before
// serving anything), then a background loop that keeps probing and
// enforces the self-fence. ctx ends the loop.
func (c *Coordinator) StartHA(ctx context.Context) error {
	client := &http.Client{Timeout: 2 * time.Second}
	if err := c.probePeers(ctx, client); err != nil {
		return err
	}
	go func() {
		tick := time.NewTicker(c.opt.CheckEvery)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-c.deposedCh:
				return
			case <-tick.C:
			}
			if silent, armed := c.repl.silentFor(time.Now()); armed &&
				c.opt.SelfFenceAfter > 0 && silent > c.opt.SelfFenceAfter {
				c.mu.Lock()
				c.stepDownLocked(fmt.Sprintf("standby silent for %v", silent))
				c.mu.Unlock()
				return
			}
			if err := c.probePeers(ctx, client); err != nil {
				return
			}
			c.mReplLag.Set(float64(c.repl.lag()))
		}
	}()
	return nil
}

// probePeers asks every peer's /v1/ha/status for its term; a higher
// one deposes this coordinator. Unreachable peers are skipped — a
// partition must never fence the primary by itself (the worker-carried
// term and the self-fence cover that side).
func (c *Coordinator) probePeers(ctx context.Context, client *http.Client) error {
	c.mu.Lock()
	term := c.term
	c.mu.Unlock()
	for _, p := range c.opt.Peers {
		st, err := fetchHAStatus(ctx, client, p)
		if err != nil {
			continue
		}
		if st.Term > term {
			c.mu.Lock()
			c.stepDownLocked(fmt.Sprintf("peer %s (%s) asserts term %d", p, st.ID, st.Term))
			c.mu.Unlock()
			return fmt.Errorf("%w (peer %s serves term %d, ours is %d)", ErrDeposed, st.ID, st.Term, term)
		}
	}
	return nil
}

// Quarantined returns the quarantined worker names, sorted.
func (c *Coordinator) Quarantined() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for w := range c.quarantined {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// LedgerPath returns the coordinator's lease ledger file.
func (c *Coordinator) LedgerPath() string { return filepath.Join(c.dir, "lease.ledger") }

// sanitize maps a job name to a filename.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}

// AddJob registers a job, resuming from its journal and the lease
// ledger: rows already journaled are done and will never be granted
// again; rows with a recovered grant keep their epoch (so a worker
// that outlived the coordinator crash can still renew and complete)
// with a conservative fresh TTL from now. A job registered here stays
// until Run takes it out.
func (c *Coordinator) AddJob(job Job) error {
	if err := c.addJob(job); err != nil {
		return err
	}
	// The registration is on the replication stream: wait for the
	// standby to hold it before the caller can announce the job.
	c.replBarrier()
	return nil
}

func (c *Coordinator) addJob(job Job) error {
	if job.Name == "" {
		return fmt.Errorf("dist: job needs a name")
	}
	if len(job.Kernels) == 0 {
		return fmt.Errorf("dist: job %s has no kernels", job.Name)
	}
	if job.Journal == nil {
		return fmt.Errorf("dist: job %s has no journal", job.Name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.jobs[job.Name]; ok {
		return fmt.Errorf("dist: job %s already registered", job.Name)
	}
	if !job.Trace.Valid() {
		job.Trace = obs.NewSpanContext()
	}
	js := &jobState{job: job, rows: make([]rowState, len(job.Kernels)), matrix: sweep.NewMatrix(job.Space, job.Kernels)}
	now := c.now()
	prior := job.Journal.Prior()
	for r, k := range job.Kernels {
		key := rowKey{job.Name, r}
		if g, ok := c.recovered.grants[key]; ok {
			js.rows[r] = rowState{epoch: g.Epoch, worker: g.Worker, term: g.Term,
				expiry: laterOf(now.Add(c.opt.DefaultTTL), time.Unix(0, g.ExpiryNS))}
		}
		rs := &js.rows[r]
		rr := c.recovered.rows[key]
		if rr != nil && rr.invalidated {
			// The ledger retracted this row after the journal recorded
			// it: the journaled bytes are the suspect's and must be
			// ignored. Reopen pending with the replayed votes (at least
			// the retracted claim) so one honest agreement settles it.
			rs.pending = true
			rs.lastVote = now
			for _, v := range rr.votes {
				rs.votes = append(rs.votes, rowVote{worker: v.Worker, digest: v.Digest, epoch: v.Epoch})
			}
			continue
		}
		havePrior := false
		var pr int
		if prior != nil {
			if pr = prior.Row(k.Name); pr >= 0 && prior.RowComplete(pr) {
				havePrior = true
			}
		}
		switch {
		case havePrior:
			js.matrix.Throughput[r], js.matrix.TimeNS[r] = prior.Throughput[pr], prior.TimeNS[pr]
			js.matrix.Bound[r], js.matrix.Status[r] = prior.Bound[pr], prior.Status[pr]
			rs.done = true
			if rr != nil && rr.completed {
				rs.digest, rs.verified, rs.completedBy = rr.digest, rr.verified, rr.completedBy
			} else {
				// Crash between the journal fsync and the ledger's
				// complete record: the journal is the source of truth, so
				// the row is done — recompute its digest from the
				// journaled bytes and credit the last granted worker,
				// unverified.
				if d, derr := sweep.RowDigest(js.matrix, r); derr == nil {
					rs.digest = d
				}
				rs.completedBy = rs.worker
			}
		case rr != nil && rr.completed:
			// The ledger acked a complete the journal lost (torn-tail
			// salvage dropped the row). Done-ness follows the journal:
			// re-lease the row, keeping the ledgered digest as a vote so
			// an honest re-execution settles it verified.
			rs.pending = true
			rs.lastVote = now
			rs.votes = []rowVote{{worker: rr.completedBy, digest: rr.digest, epoch: rs.epoch}}
		case rr != nil && len(rr.votes) > 0:
			// Open re-verification votes from before the crash.
			rs.pending = true
			rs.lastVote = now
			for _, v := range rr.votes {
				rs.votes = append(rs.votes, rowVote{worker: v.Worker, digest: v.Digest, epoch: v.Epoch})
			}
		}
	}
	// A crash mid-quarantine can leave a worker ledgered as
	// quarantined with unverified completes not yet retracted: finish
	// the job now, before any of its rows can be trusted.
	for r := range js.rows {
		rs := &js.rows[r]
		if rs.done && !rs.verified && rs.completedBy != "" && c.quarantined[rs.completedBy] {
			c.invalidateLocked(js, r)
		}
	}
	c.jobs[job.Name] = js
	// Put the registration on the replication stream so a standby can
	// re-register the job at promotion (the OnRow hook stays local),
	// followed by the rows the job's journal already held: a standby
	// forgets a job once its Run returns, so a job resumed after a
	// restart reaches the standby's replica journal whole only this way.
	if spec, err := specForJob(job); err == nil {
		c.repl.publish(replMsg{Kind: "job", Job: &spec})
		for _, rp := range js.doneRows() {
			c.repl.publish(replMsg{Kind: "row", Row: &rp})
		}
	}
	// A per-job term instant: the stitched trace shows which
	// coordinator, under which term, served this job's grants.
	c.opt.Sink.Emit("term", "dist", 0, job.Trace.Child(), job.Trace.SpanID, time.Now(), 0,
		obs.KS("job", job.Name), obs.KN("term", float64(c.term)), obs.KS("coordinator", c.id))
	return nil
}

func laterOf(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// Close closes the ledger. Job journals belong to their owners.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ledger.Close()
}

// Status reports a job's progress.
func (c *Coordinator) Status(job string) (JobStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	js, ok := c.jobs[job]
	if !ok {
		return JobStatus{}, false
	}
	return c.statusLocked(js), true
}

func (c *Coordinator) statusLocked(js *jobState) JobStatus {
	st := JobStatus{Job: js.job.Name, Rows: len(js.rows)}
	now := c.now()
	for _, r := range js.rows {
		if r.done {
			st.Done++
			continue
		}
		if r.epoch > 0 && now.Before(r.expiry) {
			st.Leased++
		}
		if r.pending {
			st.Verifying++
		}
	}
	st.Complete = st.Done == st.Rows
	return st
}

// TraceID returns a registered job's trace ID, or "" when the job is
// unknown — the handle tests and tools use to find the job's stitched
// trace.
func (c *Coordinator) TraceID(job string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	js, ok := c.jobs[job]
	if !ok {
		return ""
	}
	return js.job.Trace.TraceID
}

// Matrix returns a copy-free snapshot of a job's matrix once the job
// is complete, or false while rows are outstanding.
func (c *Coordinator) Matrix(job string) (*sweep.Matrix, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	js, ok := c.jobs[job]
	if !ok || !c.statusLocked(js).Complete {
		return nil, false
	}
	return js.matrix, true
}

// Run registers job and blocks until every row is done or ctx ends.
// On cancellation the partial matrix and its report are returned
// alongside the context error, mirroring sweep.RunContext. However
// Run returns, the job has left the coordinator (see retire), so the
// caller owns the returned matrix and may close the job's journal.
func (c *Coordinator) Run(ctx context.Context, job Job) (*sweep.Matrix, *sweep.RunReport, error) {
	if err := c.AddJob(job); err != nil {
		return nil, nil, err
	}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if m, ok := c.retire(job.Name, false); ok {
			return m, reportFor(m), nil
		}
		var err error
		select {
		case <-ctx.Done():
			err = ctx.Err()
		case <-c.deposedCh:
			// A newer term is live: this coordinator will never see the
			// job finish. Surface the partial matrix and the deposed
			// error so the process can exit with the distinct code.
			err = ErrDeposed
		case <-tick.C:
			continue
		}
		m, _ := c.retire(job.Name, true)
		return m, reportFor(m), err
	}
}

// retire takes a job out of the coordinator in the critical section
// that reads its final matrix: its rows are never granted again,
// renews and completes for it answer 404, the HA snapshot drops it and
// no quarantine can retract its rows. The "left" message it publishes
// follows the job's last row and complete frames on the replication
// stream, and tells the standby to forget the job too. Without force,
// a job with rows outstanding stays and retire reports false.
func (c *Coordinator) retire(name string, force bool) (*sweep.Matrix, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	js := c.jobs[name]
	if !force && !c.statusLocked(js).Complete {
		return nil, false
	}
	delete(c.jobs, name)
	c.repl.publish(replMsg{Kind: "left", Left: name})
	return js.matrix, true
}

// acquire grants the next available row to the requesting worker,
// persisting the grant before returning it. Returns nil when nothing
// is available. The version handshake and the quarantine fence run
// before anything else: a worker that fails either never touches
// lease state, never refreshes its federation target, and never sees
// a row.
func (c *Coordinator) acquire(req acquireRequest) (*Lease, error) {
	worker := req.Worker
	if req.Proto != ProtoVersion || req.Fingerprint != EngineFingerprint() {
		c.mVersionFenced.Inc()
		c.opt.Sink.Emit("version-fence", "dist", 0, obs.SpanContext{}, "", time.Now(), 0,
			obs.KS("worker", worker), obs.KS("proto", req.Proto), obs.KS("fingerprint", req.Fingerprint))
		return nil, fmt.Errorf("%w: worker %s speaks %q fingerprint %q, coordinator %q fingerprint %q",
			errVersionMismatch, worker, req.Proto, req.Fingerprint, ProtoVersion, EngineFingerprint())
	}
	c.mu.Lock()
	if c.quarantined[worker] {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", errQuarantined, worker)
	}
	c.mu.Unlock()
	if c.opt.OnWorker != nil && req.MetricsURL != "" {
		c.opt.OnWorker(worker, req.MetricsURL)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Re-check under the lock: OnWorker ran outside it and a
	// concurrent complete may have quarantined this worker meanwhile.
	if c.quarantined[worker] {
		return nil, fmt.Errorf("%w: %s", errQuarantined, worker)
	}
	if req.Term > c.term {
		// The worker has seen a lease from a newer term: a standby
		// promoted while we were partitioned from it, and the worker's
		// own traffic is the first we hear of it. Step down — granting
		// anything now would be a second live primary.
		c.stepDownLocked(fmt.Sprintf("worker %s carries term %d", worker, req.Term))
	}
	if c.deposed {
		return nil, ErrDeposed
	}
	now := c.now()
	var names []string
	for name := range c.jobs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		js := c.jobs[name]
		for r := range js.rows {
			rs := &js.rows[r]
			if rs.done || (rs.epoch > 0 && now.Before(rs.expiry)) {
				continue
			}
			if rs.pending && voteBlocked(rs, worker, now, c.opt.DefaultTTL) {
				// The requester already voted on this row: re-verification
				// needs an independent worker, so hold the row back from
				// this one while the grace window is open.
				continue
			}
			steal := rs.epoch > 0
			epoch := rs.epoch + 1
			expiry := now.Add(c.opt.DefaultTTL)
			rec := LedgerRecord{Kind: "grant", Job: name, Row: r, Epoch: epoch,
				Worker: worker, GrantedNS: now.UnixNano(), ExpiryNS: expiry.UnixNano(),
				Steal: steal, Early: rs.releasedEarly}
			// Fsync the grant BEFORE the worker can see it: a crash
			// after this point recovers an epoch some worker may hold.
			if err := c.logAppend(rec); err != nil {
				return nil, err
			}
			// The lease span: a fresh child of the job span, minted per
			// grant so each epoch is its own node in the stitched trace.
			leaseSC := js.job.Trace.Child()
			rs.epoch, rs.worker, rs.expiry, rs.span = epoch, worker, expiry, leaseSC.SpanID
			rs.term = c.term
			rs.releasedEarly = false
			kraw, err := encodeKernel(js.job.Kernels[r])
			if err != nil {
				return nil, err
			}
			c.mGranted.Inc()
			ev := "lease"
			if steal {
				c.mStolen.Inc()
				ev = "steal"
			}
			c.opt.Sink.Emit(ev, "dist", 0, leaseSC, js.job.Trace.SpanID, time.Now(), 0,
				obs.KS("job", name), obs.KN("row", float64(r)), obs.KN("epoch", float64(epoch)),
				obs.KS("worker", worker), obs.KN("term", float64(c.term)))
			return &Lease{
				Job: name, Row: r, Epoch: epoch, Term: c.term, Kernel: kraw, Space: js.job.Space,
				Seed: js.job.Seed + int64(r), NoiseStdDev: js.job.NoiseStdDev,
				Engine: js.job.Engine.String(), TTLMillis: c.opt.DefaultTTL.Milliseconds(),
				Traceparent: leaseSC.Traceparent(),
			}, nil
		}
	}
	return nil, nil
}

// errStale marks a fenced (stale-epoch) renew or complete.
var errStale = fmt.Errorf("dist: stale lease epoch")

// errStaleTerm marks a renew or complete whose lease was granted
// under a term that is no longer the row's current one — a deposed
// coordinator's grant surviving past a failover it must not survive.
var errStaleTerm = fmt.Errorf("dist: stale coordinator term")

// errUnknown marks a renew/complete for a row the coordinator does
// not know.
var errUnknown = fmt.Errorf("dist: unknown job or row")

// errVersionMismatch marks an acquire whose proto/fingerprint
// handshake failed — the worker's binary cannot mix rows with this
// coordinator's.
var errVersionMismatch = fmt.Errorf("dist: version/fingerprint mismatch")

// errQuarantined marks any call from a worker fenced fleet-wide.
var errQuarantined = fmt.Errorf("dist: worker is quarantined")

// errBadAttest marks an OK complete whose digest does not hash the
// shipped planes.
var errBadAttest = fmt.Errorf("dist: bad row attestation")

// voteBlocked reports whether a pending row must be held back from
// worker: it already voted, and the grace window for finding an
// independent worker is still open. After 2xTTL with no second voter
// the block lifts — with a one-worker fleet, availability wins and
// the row settles unverified via the revote path in voteLocked.
func voteBlocked(rs *rowState, worker string, now time.Time, ttl time.Duration) bool {
	if now.Sub(rs.lastVote) >= 2*ttl {
		return false
	}
	for _, v := range rs.votes {
		if v.worker == worker {
			return true
		}
	}
	return false
}

// renew extends a held lease. Fenced when the epoch is stale; reports
// done when the row already completed (stop renewing).
func (c *Coordinator) renew(req renewRequest) (renewResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.deposed {
		return renewResponse{}, ErrDeposed
	}
	if c.quarantined[req.Worker] {
		return renewResponse{}, fmt.Errorf("%w: %s", errQuarantined, req.Worker)
	}
	js, ok := c.jobs[req.Job]
	if !ok || req.Row < 0 || req.Row >= len(js.rows) {
		return renewResponse{}, errUnknown
	}
	rs := &js.rows[req.Row]
	if rs.done {
		return renewResponse{Done: true}, nil
	}
	if req.Term != rs.term {
		c.mTermFenced.Inc()
		return renewResponse{}, fmt.Errorf("%w: lease for %s row %d holds term %d, current is %d",
			errStaleTerm, req.Job, req.Row, req.Term, rs.term)
	}
	if req.Epoch != rs.epoch {
		return renewResponse{}, errStale
	}
	rs.expiry = c.now().Add(c.opt.DefaultTTL)
	rs.worker = req.Worker
	return renewResponse{}, nil
}

// complete records a row's terminal state. Exactly-once discipline:
// an already-done row acks as a duplicate (so retried completes are
// idempotent); a stale epoch is fenced; an OK row is journaled and
// ledgered — both fsynced — before the ack; a not-OK row is released
// for immediate re-lease. The integrity plane hangs off the OK path:
// the digest must hash the shipped planes, and a row in the
// re-verification sample is held as a vote until an independent
// worker agrees on its digest.
func (c *Coordinator) complete(req completeRequest) (completeResponse, error) {
	// Unpacking, validating, rendering and digesting the row is most of
	// a complete's CPU, and it reads only the job's space and kernel
	// names, which never change once the job is registered. So it runs
	// before c.mu is taken; the verdict below still applies its outcome
	// in the same check order, and a job retired or re-registered
	// between the two looks is caught there.
	c.mu.Lock()
	pre := c.jobs[req.Job]
	c.mu.Unlock()
	row := renderComplete(pre, req)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.deposed {
		return completeResponse{}, ErrDeposed
	}
	if c.quarantined[req.Worker] {
		return completeResponse{}, fmt.Errorf("%w: %s", errQuarantined, req.Worker)
	}
	js, ok := c.jobs[req.Job]
	if !ok || req.Row < 0 || req.Row >= len(js.rows) {
		return completeResponse{}, errUnknown
	}
	rs := &js.rows[req.Row]
	if rs.done {
		// Idempotent even across a failover: a retried complete for a
		// row that already landed acks as a duplicate regardless of
		// which term granted it.
		c.mDuplicate.Inc()
		return completeResponse{Duplicate: true}, nil
	}
	if req.Term != rs.term {
		// The term fence: this lease was granted by a coordinator whose
		// reign ended (or predates the row's current grant). Like the
		// epoch fence one level down, the result would be bit-identical
		// — rejecting it is what keeps "which primary granted which
		// rows" answerable from the ledger.
		c.mTermFenced.Inc()
		c.emit("fence", js, rs.span, obs.KS("job", req.Job), obs.KN("row", float64(req.Row)),
			obs.KN("epoch", float64(req.Epoch)), obs.KS("worker", req.Worker),
			obs.KN("term", float64(req.Term)), obs.KN("current_term", float64(rs.term)))
		return completeResponse{}, fmt.Errorf("%w: lease for %s row %d holds term %d, current is %d",
			errStaleTerm, req.Job, req.Row, req.Term, rs.term)
	}
	if req.Epoch != rs.epoch {
		// The fence: a worker whose lease was stolen finished anyway.
		// Its numbers are bit-identical to the thief's (seeded noise),
		// but accepting them would hide real protocol bugs — reject
		// and let the live epoch's complete land.
		c.mFenced.Inc()
		c.emit("fence", js, rs.span, obs.KS("job", req.Job), obs.KN("row", float64(req.Row)),
			obs.KN("epoch", float64(req.Epoch)), obs.KN("current", float64(rs.epoch)), obs.KS("worker", req.Worker))
		return completeResponse{}, errStale
	}
	if !req.OK {
		// Release for re-lease: epoch stays (the failed worker's token
		// dies with this call), expiry is now so the next acquire can
		// take the row.
		rs.expiry = c.now()
		rs.releasedEarly = true
		c.mRequeued.Inc()
		c.emit("requeue", js, rs.span, obs.KS("job", req.Job), obs.KN("row", float64(req.Row)),
			obs.KN("epoch", float64(req.Epoch)), obs.KS("worker", req.Worker))
		return completeResponse{Requeued: true}, nil
	}
	if js != pre {
		// Registered between the two looks at c.jobs.
		row = renderComplete(js, req)
	}
	if row.err != nil {
		return completeResponse{}, row.err
	}
	// Attestation: the digest must hash exactly the planes shipped.
	// A mismatch means the payload was damaged in flight or the worker
	// attested bytes it did not send — either way these planes must
	// not reach the matrix, and retrying the identical payload cannot
	// succeed (400, not 409).
	if req.Digest != row.digest {
		c.mBadAttest.Inc()
		c.emit("bad-attest", js, rs.span, obs.KS("job", req.Job), obs.KN("row", float64(req.Row)),
			obs.KS("worker", req.Worker), obs.KS("digest", req.Digest), obs.KS("want", row.digest))
		return completeResponse{}, fmt.Errorf("%w: %s row %d digest %q does not hash the shipped planes (%s)",
			errBadAttest, req.Job, req.Row, req.Digest, row.digest)
	}
	if rs.pending || verifySelected(js.job.Seed, req.Row, c.opt.VerifyFraction) {
		return c.voteLocked(js, rs, req, row)
	}
	return c.acceptLocked(js, rs, req, row, false)
}

// completeRow is an OK complete's row as the coordinator accepts it:
// the planes unpacked and validated, rendered once as the row's
// journal record, and that record's digest. err is the verdict on a
// payload that failed validation.
type completeRow struct {
	planes planes
	rec    sweep.RowRecord
	digest string
	err    error
}

// renderComplete prepares an OK complete's row for the verdict. It
// reads only js's immutable registration (space and kernel names), so
// it needs no lock; a nil job, an out-of-range row or a not-OK complete
// prepare nothing, because the verdict rejects them first.
func renderComplete(js *jobState, req completeRequest) completeRow {
	if js == nil || !req.OK || req.Row < 0 || req.Row >= len(js.rows) {
		return completeRow{}
	}
	p, err := unpackPlanes(js.job.Space.Size(), req.Planes)
	if err != nil {
		return completeRow{err: fmt.Errorf("dist: complete for %s row %d has %v", req.Job, req.Row, err)}
	}
	rec, err := sweep.EncodePlanes(js.job.Kernels[req.Row].Name, p.tput, p.timeNS, p.bound)
	if err != nil {
		return completeRow{err: err}
	}
	return completeRow{planes: p, rec: rec, digest: sweep.RecordDigest(rec)}
}

// acceptLocked lands an attested OK complete: the rendered record into
// the job's journal, complete into the ledger — fsynced in that order
// before the ack — and the planes, assigned whole, into the matrix
// once the journal holds them; then the OnRow hook and instruments.
// Caller holds c.mu.
func (c *Coordinator) acceptLocked(js *jobState, rs *rowState, req completeRequest, row completeRow, verified bool) (completeResponse, error) {
	r := req.Row
	// Fsync-before-ack, twice: the row into the job's journal (the
	// source of truth for done-ness), then the complete into the
	// ledger (the audit trail). A crash between the two recovers as
	// done from the journal, so the ledger's complete record is
	// best-effort audit, not load-bearing state. If the row was
	// invalidated earlier, this append supersedes the retracted bytes:
	// journal replay is last-record-wins per kernel.
	if err := js.job.Journal.AppendRecord(row.rec); err != nil {
		return completeResponse{}, err
	}
	// The planes unpackPlanes allocated for this complete become the
	// row; a fresh status row is all StatusOK, the zero value.
	m := js.matrix
	m.Throughput[r], m.TimeNS[r], m.Bound[r] = row.planes.tput, row.planes.timeNS, row.planes.bound
	m.Status[r] = make([]sweep.CellStatus, len(row.planes.tput))
	// Replicate the planes as received before the complete record,
	// mirroring the local journal-then-ledger order: the standby's
	// journal append for this row lands at a lower cursor than its
	// complete frame, so a promotion between the two recovers done-ness
	// from the journal exactly like a local crash would.
	c.repl.publish(replMsg{Kind: "row", Row: &RowPlanes{
		Job: req.Job, Row: r, Kernel: js.job.Kernels[r].Name, Planes: req.Planes}})
	if err := c.logAppend(LedgerRecord{Kind: "complete", Job: req.Job, Row: r,
		Epoch: req.Epoch, Worker: req.Worker, Digest: req.Digest, Verified: verified}); err != nil {
		return completeResponse{}, err
	}
	rs.done = true
	rs.digest, rs.verified, rs.completedBy = req.Digest, verified, req.Worker
	rs.pending, rs.votes = false, nil
	if js.job.OnRow != nil {
		js.job.OnRow(js.matrix, r)
	}
	c.mCompleted.Inc()
	if verified {
		c.mVerified.Inc()
	}
	c.emit("complete", js, rs.span, obs.KS("job", req.Job), obs.KN("row", float64(r)),
		obs.KN("epoch", float64(req.Epoch)), obs.KS("worker", req.Worker), obs.KB("verified", verified))
	return completeResponse{Verified: verified}, nil
}

// voteLocked handles an attested complete for a row in the
// re-verification sample: the claim is ledgered as a vote, and the
// row settles only when two distinct workers agree on its digest.
// Dissenting votes at settlement are proven lies, and each quarantines
// its worker. A lone worker re-voting its own digest after the
// grace window settles the row unverified (availability over
// byzantine safety when no independent worker exists). Caller holds
// c.mu.
func (c *Coordinator) voteLocked(js *jobState, rs *rowState, req completeRequest, row completeRow) (completeResponse, error) {
	now := c.now()
	agree := 1 // the incoming claim
	revote := false
	var dissent []rowVote
	for _, v := range rs.votes {
		if v.worker == req.Worker {
			revote = true
			continue // superseded by the incoming claim
		}
		if v.digest == req.Digest {
			agree++
		} else {
			dissent = append(dissent, v)
		}
	}
	// Fsync the vote before any ack: a restarted coordinator must
	// remember every claim it held a row open for.
	if err := c.logAppend(LedgerRecord{Kind: "attest", Job: req.Job, Row: req.Row,
		Epoch: req.Epoch, Worker: req.Worker, Digest: req.Digest}); err != nil {
		return completeResponse{}, err
	}
	c.emit("attest", js, rs.span, obs.KS("job", req.Job), obs.KN("row", float64(req.Row)),
		obs.KN("epoch", float64(req.Epoch)), obs.KS("worker", req.Worker), obs.KS("digest", req.Digest))
	if agree >= 2 {
		// Independent agreement: accept verified, and every dissenting
		// vote is now a proven lie.
		resp, err := c.acceptLocked(js, rs, req, row, true)
		if err != nil {
			return resp, err
		}
		for _, v := range dissent {
			c.quarantineLocked(js, v.worker, req.Job, req.Row, v.digest)
		}
		return resp, nil
	}
	if revote && !rs.lastVote.IsZero() && now.Sub(rs.lastVote) >= 2*c.opt.DefaultTTL {
		// Grace elapsed with no independent worker: the same worker
		// re-executed the row (fresh lease, fresh computation) and got
		// the same digest. Accept unverified rather than deadlock a
		// one-worker fleet.
		return c.acceptLocked(js, rs, req, row, false)
	}
	replaced := false
	for i := range rs.votes {
		if rs.votes[i].worker == req.Worker {
			rs.votes[i] = rowVote{worker: req.Worker, digest: req.Digest, epoch: req.Epoch}
			replaced = true
		}
	}
	if !replaced {
		rs.votes = append(rs.votes, rowVote{worker: req.Worker, digest: req.Digest, epoch: req.Epoch})
	}
	rs.pending = true
	rs.lastVote = now
	// Release the row for an independent re-execution; the voter's
	// part is done (its completeWithRetry stops here).
	rs.expiry = now
	rs.releasedEarly = true
	return completeResponse{PendingVerify: true}, nil
}

// quarantineLocked charges worker a proven lie — its digest lost a
// vote on job's row — and fences it fleet-wide, because honest workers
// never lose a vote (seeded determinism makes honest re-executions
// bit-identical). Future acquires, renews and completes are rejected;
// its live leases are revoked for immediate re-lease; and every
// unverified row it completed in a job still registered is retracted
// and reopened — graceful degradation, because healthy workers pick the
// rows back up on their next acquire. A job Run has returned is out of
// reach: its matrix belongs to the caller. The strike and quarantine
// records are best-effort audit: the quarantine already holds in
// memory, failing the accepted complete over an audit record would
// trade integrity for bookkeeping, and replay quarantines on either
// record. Caller holds c.mu.
func (c *Coordinator) quarantineLocked(js *jobState, worker, job string, row int, digest string) {
	if c.quarantined[worker] {
		return
	}
	c.quarantined[worker] = true
	c.logAppend(LedgerRecord{Kind: "strike", Job: job, Row: row, Worker: worker, Digest: digest}) //nolint:errcheck // best-effort audit
	c.mMismatch.Inc()
	c.emit("strike", js, js.job.Trace.SpanID, obs.KS("job", job), obs.KN("row", float64(row)),
		obs.KS("worker", worker), obs.KS("digest", digest))
	c.logAppend(LedgerRecord{Kind: "quarantine", Job: job, Row: row, Worker: worker, Digest: digest}) //nolint:errcheck // best-effort audit
	c.mQuarantined.Inc()
	c.emit("quarantine", js, js.job.Trace.SpanID, obs.KS("job", job), obs.KN("row", float64(row)),
		obs.KS("worker", worker), obs.KS("digest", digest))
	if c.opt.OnQuarantine != nil {
		c.opt.OnQuarantine(worker)
	}
	now := c.now()
	for _, other := range c.jobs {
		for r := range other.rows {
			rs := &other.rows[r]
			if rs.done {
				if rs.completedBy == worker && !rs.verified {
					c.invalidateLocked(other, r)
				}
				continue
			}
			if rs.worker == worker && rs.epoch > 0 && now.Before(rs.expiry) {
				// Revoke the live lease. The epoch stays, so anything the
				// quarantined worker still sends is fenced stale on top of
				// being quarantined.
				rs.expiry = now
				rs.releasedEarly = true
			}
		}
	}
}

// invalidateLocked retracts a done row: its ledgered invalidate names
// the worker and digest being withdrawn, the matrix row is settled
// anew as all-canceled and handed to OnRow, and the row reopens
// pending with the retracted claim seeded as a vote — if an honest
// worker reproduces the digest, the values were right after all and
// one agreement settles the row verified. Caller holds c.mu.
func (c *Coordinator) invalidateLocked(js *jobState, r int) {
	rs := &js.rows[r]
	c.logAppend(LedgerRecord{Kind: "invalidate", Job: js.job.Name, Row: r,
		Epoch: rs.epoch, Worker: rs.completedBy, Digest: rs.digest}) //nolint:errcheck // best-effort audit
	rs.votes = []rowVote{{worker: rs.completedBy, digest: rs.digest, epoch: rs.epoch}}
	rs.done = false
	rs.pending = true
	rs.digest, rs.verified, rs.completedBy = "", false, ""
	now := c.now()
	rs.lastVote = now
	rs.expiry = now
	rs.releasedEarly = true
	js.matrix.SettleRow(r, sweep.StatusCanceled)
	if js.job.OnRow != nil {
		js.job.OnRow(js.matrix, r)
	}
	c.mInvalid.Inc()
	c.emit("invalidate", js, rs.span, obs.KS("job", js.job.Name), obs.KN("row", float64(r)),
		obs.KN("epoch", float64(rs.epoch)))
}

// Handler serves the lease protocol under /v1/dist/.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/dist/lease", func(w http.ResponseWriter, r *http.Request) {
		var req acquireRequest
		if !decodeInto(w, r, &req) {
			return
		}
		lease, err := c.acquire(req)
		if err != nil {
			writeLeaseError(w, err)
			return
		}
		if lease == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		// Append-before-ack, replication half: the grant record is on
		// the stream; hold the response until the standby holds it too
		// (bounded — a timeout degrades to async, never fails the
		// lease). Runs after c.mu is released, so a publisher never
		// blocks the snapshot or tail handlers.
		c.replBarrier()
		writeJSON(w, http.StatusOK, lease)
	})
	mux.HandleFunc("/v1/dist/renew", func(w http.ResponseWriter, r *http.Request) {
		var req renewRequest
		if !decodeInto(w, r, &req) {
			return
		}
		resp, err := c.renew(req)
		if err != nil {
			writeLeaseError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/v1/dist/complete", func(w http.ResponseWriter, r *http.Request) {
		var req completeRequest
		if !decodeInto(w, r, &req) {
			return
		}
		resp, err := c.complete(req)
		if err != nil {
			writeLeaseError(w, err)
			return
		}
		// As with grants: the worker's ack means the complete — planes
		// and record — reached the standby (or the barrier degraded and
		// said so on the instruments).
		c.replBarrier()
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/v1/ha/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.haStatus())
	})
	mux.HandleFunc("/v1/ha/tail", func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		deposed, term := c.deposed, c.term
		c.mu.Unlock()
		if deposed {
			writeLeaseError(w, ErrDeposed)
			return
		}
		cursor, err := strconv.ParseInt(r.URL.Query().Get("cursor"), 10, 64)
		if err != nil || cursor < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad cursor"})
			return
		}
		msgs, next, ok := c.repl.tail(cursor, 500*time.Millisecond)
		if !ok {
			writeJSON(w, http.StatusConflict, errorBody{
				Error: "cursor outside the retained replication window", Code: "out-of-sync"})
			return
		}
		writeJSON(w, http.StatusOK, tailResponse{ID: c.id, Term: term, Next: next, Msgs: msgs})
	})
	mux.HandleFunc("/v1/ha/snapshot", func(w http.ResponseWriter, r *http.Request) {
		snap, err := c.snapshot()
		if err != nil {
			writeLeaseError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, snap)
	})
	return mux
}

// haStatus is this coordinator's probe view.
func (c *Coordinator) haStatus() HAStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	role := "primary"
	if c.deposed {
		role = "deposed"
	}
	return HAStatus{ID: c.id, Role: role, Term: c.term, Cursor: c.repl.latest()}
}

// snapshot builds a consistent full copy of the durable state for a
// standby that cannot catch up from the tail: the exact ledger bytes,
// every registered job's spec and completed rows, and the cursor at
// which tailing resumes. Taken under c.mu, so no publish can
// interleave — the cursor and the state describe the same instant.
func (c *Coordinator) snapshot() (*haSnapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.deposed {
		return nil, ErrDeposed
	}
	// Ship only what was acked, never a failed append's partial bytes.
	ledgerBytes, err := c.ledger.Prefix()
	if err != nil {
		return nil, fmt.Errorf("dist: reading ledger for snapshot: %w", err)
	}
	snap := &haSnapshot{ID: c.id, Term: c.term, Cursor: c.repl.latest(), Ledger: ledgerBytes}
	var names []string
	for name := range c.jobs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		js := c.jobs[name]
		spec, err := specForJob(js.job)
		if err != nil {
			return nil, err
		}
		snap.Jobs = append(snap.Jobs, spec)
		snap.Rows = append(snap.Rows, js.doneRows()...)
	}
	return snap, nil
}

// doneRows packs every done row of js for the replication stream.
// Caller holds c.mu.
func (js *jobState) doneRows() []RowPlanes {
	var out []RowPlanes
	for r := range js.rows {
		if js.rows[r].done {
			out = append(out, RowPlanes{Job: js.job.Name, Row: r, Kernel: js.job.Kernels[r].Name,
				Planes: packPlanes(js.matrix.Throughput[r], js.matrix.TimeNS[r], js.matrix.Bound[r])})
		}
	}
	return out
}

// decodeInto parses a POST body, answering 4xx itself on failure.
func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	if err := dec.Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad request body: %v", err)})
		return false
	}
	return true
}

// writeLeaseError maps protocol errors to status codes and machine
// codes: the three fences — stale epoch, version mismatch, quarantine
// — are 409 (retrying as-is cannot succeed, but the request was
// well-formed), a bad attestation is 400 (the payload itself is
// wrong), unknown rows 404, anything else 500.
func writeLeaseError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errStale):
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error(), Code: "stale-epoch"})
	case errors.Is(err, errStaleTerm):
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error(), Code: "stale-term"})
	case errors.Is(err, ErrDeposed):
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error(), Code: "deposed"})
	case errors.Is(err, errVersionMismatch):
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error(), Code: "version-mismatch"})
	case errors.Is(err, errQuarantined):
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error(), Code: "quarantined"})
	case errors.Is(err, errBadAttest):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error(), Code: "bad-attestation"})
	case errors.Is(err, errUnknown):
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
