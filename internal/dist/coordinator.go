package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
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
	// OnRow, when non-nil, hears each row the fleet settles — the hook
	// internal/serve settles its rows with. journaled means the row's
	// record is in the job's journal: its complete was accepted, after
	// the record was durably appended. Not journaled means a quarantine
	// retracted the row, live or, at AddJob, for a row the journal holds
	// and the ledger retracted: the row is canceled, and the journal's
	// record for it no longer stands. A fleet settles no other kind of
	// row: a failed complete only requeues its row. A retracted row
	// settles journaled again once a healthy worker's complete is
	// accepted. Called with the coordinator's lock held: it must not
	// call back into the Coordinator.
	OnRow func(r int, journaled bool)
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
	// reused marks a done row taken from the job's journal at
	// registration, which no worker computed for this run.
	reused bool
}

// jobState is one registered job's lease state, and what sizes its
// lease batches: the workers that have leased from it and the
// compute-and-encode time its completes reported. Its rows' planes are
// in the job's journal, never here.
type jobState struct {
	job      Job
	rows     []rowState
	workers  map[string]bool
	costNS   int64
	costRows int64
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
	// files maps each file but the ledger the stream carried — journals
	// and Replicate's records — from its name in the replica to its path.
	files map[string]string
	// changed is closed, and replaced, whenever a row may have become
	// grantable or a job may have finished (signalLocked): a waiting
	// acquire and Run wake on it instead of polling. closed ends every
	// such wait once Close runs.
	changed chan struct{}
	closed  chan struct{}

	mGranted, mStolen, mCompleted, mDuplicate, mFenced, mRequeued            *obs.Counter
	mVersionFenced, mVerified, mMismatch, mQuarantined, mInvalid, mBadAttest *obs.Counter
	mTermFenced, mReplTimeouts, mBatches                                     *obs.Counter
	mLedgerAppends, mJournalAppends, mBarriers                               *obs.Counter
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
		quarantined: rec.quarantined, repl: newReplLog(), deposedCh: make(chan struct{}),
		changed: make(chan struct{}), closed: make(chan struct{}), files: map[string]string{}}
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
	c.mBatches = r.Counter("dist_lease_batches_total", "Acquires that granted a batch of one or more rows.")
	c.mLedgerAppends = r.Counter("dist_ledger_appends_total", "Lease-ledger appends, each one write and one fsync of one or more records.")
	c.mJournalAppends = r.Counter("dist_journal_appends_total", "Job-journal appends, each one write and one fsync of one or more accepted rows.")
	c.mBarriers = r.Counter("dist_repl_barriers_total", "Replication barriers: acks held until the standby applied what they published.")
	c.mTerm = r.Gauge("dist_ha_term", "Coordinator term this process believes is current.")
	c.mReplLag = r.Gauge("dist_repl_lag_records", "Replication-stream records the attached standby has not yet acknowledged.")
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
// live somewhere, so nothing it grants or acks may reach the journal
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

// span records, as a child of a job's span, one span of a call's work
// on the job from start until now, with the rows and bytes it handled.
// It records nothing under an invalid job span.
func (c *Coordinator) span(name string, job obs.SpanContext, start time.Time, rows, bytes int) {
	if job.Valid() {
		c.opt.Sink.Emit(name, "dist", 0, obs.SpanContext{TraceID: job.TraceID}, job.SpanID, start, time.Since(start),
			obs.KN("rows", float64(rows)), obs.KN("bytes", float64(bytes)))
	}
}

// jobTrace is a registered job's span context, for the spans a call on
// it emits; invalid for a job that is not registered, and when there
// is no sink to emit to.
func (c *Coordinator) jobTrace(job string) obs.SpanContext {
	if c.opt.Sink == nil {
		return obs.SpanContext{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if js := c.jobs[job]; js != nil {
		return js.job.Trace
	}
	return obs.SpanContext{}
}

// ledgerAppend writes recs to the ledger under the current term in one
// write and one fsync, and returns the append — their exact framed
// bytes — as a message for the replication stream. Caller holds c.mu
// (or has exclusive access during construction).
func (c *Coordinator) ledgerAppend(recs []LedgerRecord) ([]replMsg, error) {
	var buf []byte
	for _, rec := range recs {
		rec.Term = c.term
		framed, err := frameRecord(rec)
		if err != nil {
			return nil, err
		}
		buf = append(buf, framed...)
	}
	if len(recs) == 0 {
		return nil, nil
	}
	if err := c.ledger.Append(buf); err != nil {
		return nil, fmt.Errorf("dist: appending ledger record: %w", err)
	}
	c.mLedgerAppends.Inc()
	return []replMsg{{Append: true, replFile: replFile{Name: ledgerName, Data: buf}}}, nil
}

// logAppend appends recs to the ledger (ledgerAppend) and publishes
// their frames. Caller holds c.mu (or has exclusive access during
// construction).
func (c *Coordinator) logAppend(recs ...LedgerRecord) error {
	msgs, err := c.ledgerAppend(recs)
	if err != nil {
		return err
	}
	c.repl.publish(msgs...)
	return nil
}

// signalLocked wakes every acquire and Run waiting for a change: a row
// may have become grantable, or a job may have finished. Caller holds
// c.mu.
func (c *Coordinator) signalLocked() {
	close(c.changed)
	c.changed = make(chan struct{})
}

// replBarrier is the synchronous half of append-before-ack: called
// after c.mu is released, it waits (bounded) for the attached standby
// to durably apply everything published so far. No standby attached
// means nothing to wait for; a timeout degrades to async and is
// surfaced on the instruments rather than failing the worker's call —
// the fencing rules absorb whatever a failover then loses. Under a
// valid job span it records a repl.barrier span with the call's rows
// and the bytes the standby had yet to apply.
func (c *Coordinator) replBarrier(job obs.SpanContext, rows int) {
	start := time.Now()
	c.mBarriers.Inc()
	target := c.repl.latest()
	bytes := 0
	if job.Valid() {
		bytes = c.repl.unackedBytes()
	}
	if !c.repl.waitAcked(target, c.opt.ReplTimeout) {
		c.mReplTimeouts.Inc()
	}
	c.mReplLag.Set(float64(c.repl.lag()))
	c.span("repl.barrier", job, start, rows, bytes)
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

// LedgerPath returns the coordinator's lease ledger file.
func (c *Coordinator) LedgerPath() string { return filepath.Join(c.dir, "lease.ledger") }

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
	c.replBarrier(obs.SpanContext{}, 0)
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
	// The registration replicates the job's journal whole: the replica
	// is the journal as it stands, whatever it held before.
	image, err := job.Journal.Image()
	if err != nil {
		return fmt.Errorf("dist: reading job %s's journal: %w", job.Name, err)
	}
	js := &jobState{job: job, rows: make([]rowState, len(job.Kernels)), workers: map[string]bool{}}
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
		havePrior := false
		var pr int
		if prior != nil {
			if pr = prior.Row(k.Name); pr >= 0 && prior.RowComplete(pr) {
				havePrior = true
			}
		}
		if rr != nil && rr.invalidated {
			// The ledger retracted this row after the journal recorded
			// it: the journaled bytes are the suspect's and must be
			// ignored. Reopen pending with the replayed votes (the
			// retracted claim among them, unless its digest is of an
			// earlier record format), so honest agreement settles it,
			// and tell OnRow the row is not journaled, as a live
			// retraction does, so the journaled record never stands for
			// it.
			rs.pending = true
			rs.lastVote = now
			for _, v := range rr.votes {
				rs.votes = append(rs.votes, rowVote{worker: v.Worker, digest: v.Digest, epoch: v.Epoch})
			}
			if havePrior && job.OnRow != nil {
				job.OnRow(r, false)
			}
			continue
		}
		switch {
		case havePrior:
			rs.done, rs.reused = true, true
			if rr != nil && rr.completed {
				rs.digest, rs.verified, rs.completedBy = rr.digest, rr.verified, rr.completedBy
			} else {
				// Crash between the journal fsync and the ledger's
				// complete record: the journal is the source of truth, so
				// the row is done — credit the last granted worker,
				// unverified.
				rs.completedBy = rs.worker
			}
			if !sweep.CurrentDigest(rs.digest) {
				// No ledgered digest, or one of an earlier record format:
				// digest the journaled row, so a later retraction votes
				// with a digest an honest re-execution can match.
				if d, derr := sweep.RowDigest(prior, pr); derr == nil {
					rs.digest = d
				}
			}
		case rr != nil && rr.completed && sweep.CurrentDigest(rr.digest):
			// The ledger acked a complete the journal lost (torn-tail
			// salvage dropped the row). Done-ness follows the journal:
			// re-lease the row, keeping the ledgered digest as a vote so
			// an honest re-execution settles it verified. A digest of an
			// earlier record format could only lose that vote, so such a
			// row is simply re-leased.
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
	var retracted []LedgerRecord
	for r := range js.rows {
		rs := &js.rows[r]
		if rs.done && !rs.verified && rs.completedBy != "" && c.quarantined[rs.completedBy] {
			retracted = append(retracted, c.invalidateLocked(js, r))
		}
	}
	c.logAppend(retracted...) //nolint:errcheck // best-effort audit, as in quarantineLocked
	c.jobs[job.Name] = js
	name := filepath.Base(job.Journal.Path())
	c.files[name] = job.Journal.Path()
	c.repl.publish(replMsg{replFile: replFile{Name: name, Data: image}})
	c.signalLocked()
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

// Close closes the ledger and ends every waiting acquire. Job journals
// belong to their owners.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
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

// Run registers job and blocks until every row is done or ctx ends.
// On cancellation the partial run's report is returned alongside the
// context error, mirroring sweep.RunContext. However Run returns, the
// job has left the coordinator (see retire), so its journal holds the
// job's rows for good and the caller may close it.
func (c *Coordinator) Run(ctx context.Context, job Job) (*sweep.RunReport, error) {
	start := time.Now()
	if err := c.AddJob(job); err != nil {
		return nil, err
	}
	for {
		js, changed := c.retire(job.Name, false)
		if js != nil {
			return js.report(start), nil
		}
		var err error
		select {
		case <-ctx.Done():
			err = ctx.Err()
		case <-c.deposedCh:
			// A newer term is live: this coordinator will never see the
			// job finish. Surface the partial report and the deposed
			// error so the process can exit with the distinct code.
			err = ErrDeposed
		case <-changed:
			continue
		}
		js, _ = c.retire(job.Name, true)
		return js.report(start), err
	}
}

// report is a retired job's run report over the wall time since start,
// counted from its rows' state: every cell of a row reused from the
// job's journal is skipped, as Resume counts it; every cell of a row
// done in this run was measured once from the caller's view (worker
// retries are the workers' business); every other cell is canceled.
func (js *jobState) report(start time.Time) *sweep.RunReport {
	n := js.job.Space.Size()
	rep := &sweep.RunReport{Kernels: len(js.rows), Configs: n, Cells: len(js.rows) * n, WallTime: time.Since(start)}
	for _, rs := range js.rows {
		switch {
		case rs.reused:
			rep.Skipped += n
		case rs.done:
			rep.OK += n
		default:
			rep.Canceled += n
		}
	}
	rep.Attempts = rep.OK
	return rep
}

// retire takes a job out of the coordinator in the critical section
// that reads its final state: its rows are never granted again,
// renews and completes for it answer 404 and no quarantine can
// retract its rows, so the caller owns what retire returns (a snapshot
// reads its journal from disk). Without force, a job with rows
// outstanding stays and retire returns nil, with the change signal to
// wait on before looking again.
func (c *Coordinator) retire(name string, force bool) (*jobState, <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	js := c.jobs[name]
	if !force && !c.statusLocked(js).Complete {
		return nil, c.changed
	}
	delete(c.jobs, name)
	c.signalLocked()
	return js, nil
}

// acquire grants the requesting worker a batch of rows from the first
// job with a grantable row, persisting every grant before returning
// them. Returns nothing when no row is grantable. The version handshake
// and the quarantine fence run before anything else: a worker that
// fails either never touches lease state, never refreshes its
// federation target, and never sees a row.
func (c *Coordinator) acquire(req acquireRequest) ([]Lease, error) {
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
		var free []int
		open := 0
		for r := range js.rows {
			rs := &js.rows[r]
			if rs.done || (rs.epoch > 0 && now.Before(rs.expiry)) {
				continue
			}
			open++
			if rs.pending && voteBlocked(rs, worker, now, c.opt.DefaultTTL) {
				// The requester already voted on this row: re-verification
				// needs an independent worker, so hold the row back from
				// this one while the grace window is open.
				continue
			}
			free = append(free, r)
		}
		if len(free) == 0 {
			continue
		}
		js.workers[worker] = true
		if n := js.batchSize(open); len(free) > n {
			free = free[:n]
		}
		return c.grantLocked(js, free, worker, now)
	}
	return nil, nil
}

// batchTarget is the worker compute and encoding one lease batch aims
// to hold: long enough that a batch's round trips, fsyncs and barriers
// are a small share of it, short enough that the last batches of a job
// end close together.
const batchTarget = 25 * time.Millisecond

// maxBatchBytes bounds the packed planes of one batch by the memory
// every process holds per batch: the worker its records and its
// complete body, the primary that body, the records and their one
// journal write, the standby the tail that carries them, and each heap
// grows with what it holds. 256 KiB is 17 rows of the study's 891
// configurations. With framed bodies a larger batch saves no
// measurable time: on a 2-vCPU host a 1 MiB bound ran the round study
// in 0.309 s against 0.313 s, and peaked 4.9% higher in RSS.
const maxBatchBytes = 256 << 10

// batchSize is how many of the job's open rows (not done, not under a
// live lease) the next grant may hold. A batch is one row while the
// job's mean reported row cost is unknown or above batchTarget;
// otherwise it holds batchTarget's worth of rows, at most
// maxBatchBytes of planes, and at most half an equal split of the open
// rows among the workers that have leased from the job, so the last
// batches shrink and the workers finish together.
func (js *jobState) batchSize(open int) int {
	if js.costRows == 0 {
		return 1
	}
	mean := js.costNS / js.costRows
	if mean > batchTarget.Nanoseconds() {
		return 1
	}
	n := min(int(batchTarget.Nanoseconds()/max(mean, 1)), open/(2*len(js.workers)),
		maxBatchBytes/sweep.PackedBytes(js.job.Space.Size()))
	return max(n, 1)
}

// grantLocked leases rows of js to worker: every grant goes to the
// ledger in one append — fsynced before the worker can see any of them,
// so a crash after it recovers every epoch some worker may hold — and
// to the replication stream in one publish. Caller holds c.mu.
func (c *Coordinator) grantLocked(js *jobState, rows []int, worker string, now time.Time) ([]Lease, error) {
	expiry := now.Add(c.opt.DefaultTTL)
	recs := make([]LedgerRecord, len(rows))
	kernels := make([]json.RawMessage, len(rows))
	for i, r := range rows {
		rs := &js.rows[r]
		recs[i] = LedgerRecord{Kind: "grant", Job: js.job.Name, Row: r, Epoch: rs.epoch + 1,
			Worker: worker, GrantedNS: now.UnixNano(), ExpiryNS: expiry.UnixNano(),
			Steal: rs.epoch > 0, Early: rs.releasedEarly}
		var err error
		if kernels[i], err = encodeKernel(js.job.Kernels[r]); err != nil {
			return nil, err
		}
	}
	if err := c.logAppend(recs...); err != nil {
		return nil, err
	}
	c.mBatches.Inc()
	leases := make([]Lease, len(rows))
	for i, r := range rows {
		rs := &js.rows[r]
		// The lease span: a fresh child of the job span, minted per
		// grant so each epoch is its own node in the stitched trace.
		leaseSC := js.job.Trace.Child()
		rs.epoch, rs.worker, rs.expiry, rs.span = recs[i].Epoch, worker, expiry, leaseSC.SpanID
		rs.term = c.term
		rs.releasedEarly = false
		c.mGranted.Inc()
		ev := "lease"
		if recs[i].Steal {
			c.mStolen.Inc()
			ev = "steal"
		}
		c.opt.Sink.Emit(ev, "dist", 0, leaseSC, js.job.Trace.SpanID, time.Now(), 0,
			obs.KS("job", js.job.Name), obs.KN("row", float64(r)), obs.KN("epoch", float64(rs.epoch)),
			obs.KS("worker", worker), obs.KN("term", float64(c.term)))
		leases[i] = Lease{
			Job: js.job.Name, Row: r, Epoch: rs.epoch, Term: c.term, Kernel: kernels[i], Space: js.job.Space,
			Seed: js.job.Seed + int64(r), NoiseStdDev: js.job.NoiseStdDev,
			Engine: js.job.Engine.String(), TTLMillis: c.opt.DefaultTTL.Milliseconds(),
			Traceparent: leaseSC.Traceparent(),
		}
	}
	return leases, nil
}

// longPoll bounds how long an acquire waits for work, and a standby's
// tail for messages, before answering empty: well under the
// protocol's 30 s client and server timeouts.
const longPoll = 500 * time.Millisecond

// lease answers an acquire. When no row is grantable it waits, without
// holding c.mu, for the change signal and tries again, until the
// earliest live lease or re-verification hold can lapse, longPoll
// passes, or the request, a step-down or Close ends the wait; only then
// does it answer with nothing.
func (c *Coordinator) lease(ctx context.Context, req acquireRequest) ([]Lease, error) {
	deadline := time.Now().Add(longPoll)
	for {
		c.mu.Lock()
		changed := c.changed
		c.mu.Unlock()
		leases, err := c.acquire(req)
		if err != nil || len(leases) > 0 {
			return leases, err
		}
		d := min(time.Until(deadline), c.untilGrantable(req.Worker))
		if d <= 0 {
			return nil, nil
		}
		t := time.NewTimer(d)
		select {
		case <-changed:
		case <-t.C:
		case <-c.deposedCh: // the next acquire answers ErrDeposed
		case <-ctx.Done():
			t.Stop()
			return nil, nil
		case <-c.closed:
			t.Stop()
			return nil, nil
		}
		t.Stop()
	}
}

// untilGrantable is how long until a row can become grantable to
// worker with no change signal: the earliest expiry of a live lease or
// of worker's re-verification hold. longPoll when no row is waiting on
// the clock.
func (c *Coordinator) untilGrantable(worker string) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	wait := longPoll
	for _, js := range c.jobs {
		for r := range js.rows {
			rs := &js.rows[r]
			switch {
			case rs.done:
			case rs.epoch > 0 && now.Before(rs.expiry):
				wait = min(wait, rs.expiry.Sub(now))
			case rs.pending && voteBlocked(rs, worker, now, c.opt.DefaultTTL):
				wait = min(wait, rs.lastVote.Add(2*c.opt.DefaultTTL).Sub(now))
			}
		}
	}
	return wait
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

// errRepeatedRow marks a complete that names one row twice; no worker
// sends one, and its verdicts could not be told apart.
var errRepeatedRow = fmt.Errorf("dist: complete names a row twice")

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

// renew extends a batch of held leases of one job, row by row: a row is
// fenced when its term or epoch is stale, and reported done when it
// already completed (stop renewing it).
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
	if !ok {
		return renewResponse{}, fmt.Errorf("%w: job %s", errUnknown, req.Job)
	}
	resp := renewResponse{Rows: make([]renewResult, len(req.Rows))}
	for i, ref := range req.Rows {
		resp.Rows[i] = c.renewRowLocked(js, ref, req.Worker)
	}
	return resp, nil
}

// renewRowLocked extends one row's lease. Caller holds c.mu.
func (c *Coordinator) renewRowLocked(js *jobState, ref rowRef, worker string) renewResult {
	if ref.Row < 0 || ref.Row >= len(js.rows) {
		return renewResult{refusal: refuse(errUnknown)}
	}
	rs := &js.rows[ref.Row]
	if rs.done {
		return renewResult{Done: true}
	}
	if ref.Term != rs.term {
		c.mTermFenced.Inc()
		return renewResult{refusal: refuse(fmt.Errorf("%w: lease for %s row %d holds term %d, current is %d",
			errStaleTerm, js.job.Name, ref.Row, ref.Term, rs.term))}
	}
	if ref.Epoch != rs.epoch {
		return renewResult{refusal: refuse(errStale)}
	}
	rs.expiry = c.now().Add(c.opt.DefaultTTL)
	rs.worker = worker
	return renewResult{}
}

// complete records the terminal states of a batch of one job's rows,
// each row under the single-row rules. Exactly-once discipline: an already-done row
// acks as a duplicate (so retried completes are idempotent); a stale
// term or epoch is fenced; a not-OK row is released for immediate
// re-lease. The integrity plane hangs off the OK path: the digest must
// hash the shipped planes, and a row in the re-verification sample is
// held as a vote until an independent worker agrees on its digest. The
// rows that need the disk land together (see landLocked): the accepted
// rows' records in one journal append, then every vote and complete in
// one ledger append, both fsynced before the ack.
func (c *Coordinator) complete(req completeRequest) (completeResponse, error) {
	// Validating and digesting the rows is most of a complete's CPU, and
	// it reads only the job's space and kernel names, which never change
	// once the job is registered. So it runs before c.mu is taken; the
	// verdicts below still apply its outcome in the same check order,
	// and a job retired or re-registered between the two looks is
	// caught there.
	seen := make(map[int]bool, len(req.Rows))
	for _, rc := range req.Rows {
		if seen[rc.Row] {
			return completeResponse{}, fmt.Errorf("%w: %s row %d", errRepeatedRow, req.Job, rc.Row)
		}
		seen[rc.Row] = true
	}
	c.mu.Lock()
	pre := c.jobs[req.Job]
	c.mu.Unlock()
	checked := checkAll(pre, req.Rows)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.deposed {
		return completeResponse{}, ErrDeposed
	}
	if c.quarantined[req.Worker] {
		return completeResponse{}, fmt.Errorf("%w: %s", errQuarantined, req.Worker)
	}
	js := c.jobs[req.Job]
	if js == nil {
		return completeResponse{}, fmt.Errorf("%w: job %s", errUnknown, req.Job)
	}
	if js != pre {
		// Registered between the two looks at c.jobs.
		checked = checkAll(js, req.Rows)
	}
	resp := completeResponse{Rows: make([]rowResult, len(req.Rows))}
	var lands []landing
	for i, rc := range req.Rows {
		var l *landing
		if resp.Rows[i], l = c.verdictLocked(js, req.Worker, rc, checked[i]); l != nil {
			l.i = i
			lands = append(lands, *l)
		}
		if rc.OK && rc.CostNS > 0 {
			// A reported cost sizes the job's later batches; it never
			// touches a verdict.
			js.costNS += rc.CostNS
			js.costRows++
		}
	}
	c.landLocked(js, req.Worker, lands, &resp)
	return resp, nil
}

// landing is an OK row whose verdict needs the disk: a re-verification
// vote to ledger and hold, or an accept to journal and ledger — after
// a vote when verify or the revote grace settled it. dissent names the
// votes a verified accept proves to be lies.
type landing struct {
	i        int
	rs       *rowState
	rc       rowComplete
	row      completeRow
	vote     bool
	accept   bool
	verified bool
	dissent  []rowVote
}

// verdictLocked applies the single-row rules to one row of a complete
// for registered job js, in their order. Verdicts that need no disk are
// final here; a vote or an accept comes back as a landing for
// landLocked. Caller holds c.mu.
func (c *Coordinator) verdictLocked(js *jobState, worker string, rc rowComplete, row completeRow) (rowResult, *landing) {
	if rc.Row < 0 || rc.Row >= len(js.rows) {
		return rowResult{refusal: refuse(errUnknown)}, nil
	}
	rs := &js.rows[rc.Row]
	if rs.done {
		// Idempotent even across a failover: a retried complete for a
		// row that already landed acks as a duplicate regardless of
		// which term granted it.
		c.mDuplicate.Inc()
		return rowResult{Duplicate: true}, nil
	}
	if rc.Term != rs.term {
		// The term fence: this lease was granted by a coordinator whose
		// reign ended (or predates the row's current grant). Like the
		// epoch fence one level down, the result would be bit-identical
		// — rejecting it is what keeps "which primary granted which
		// rows" answerable from the ledger.
		c.mTermFenced.Inc()
		c.emit("fence", js, rs.span, obs.KS("job", js.job.Name), obs.KN("row", float64(rc.Row)),
			obs.KN("epoch", float64(rc.Epoch)), obs.KS("worker", worker),
			obs.KN("term", float64(rc.Term)), obs.KN("current_term", float64(rs.term)))
		return rowResult{refusal: refuse(fmt.Errorf("%w: lease for %s row %d holds term %d, current is %d",
			errStaleTerm, js.job.Name, rc.Row, rc.Term, rs.term))}, nil
	}
	if rc.Epoch != rs.epoch {
		// The fence: a worker whose lease was stolen finished anyway.
		// Its numbers are bit-identical to the thief's (seeded noise),
		// but accepting them would hide real protocol bugs — reject
		// and let the live epoch's complete land.
		c.mFenced.Inc()
		c.emit("fence", js, rs.span, obs.KS("job", js.job.Name), obs.KN("row", float64(rc.Row)),
			obs.KN("epoch", float64(rc.Epoch)), obs.KN("current", float64(rs.epoch)), obs.KS("worker", worker))
		return rowResult{refusal: refuse(errStale)}, nil
	}
	if !rc.OK {
		// Release for re-lease: epoch stays (the failed worker's token
		// dies with this call), expiry is now so the next acquire can
		// take the row.
		rs.expiry = c.now()
		rs.releasedEarly = true
		c.mRequeued.Inc()
		c.emit("requeue", js, rs.span, obs.KS("job", js.job.Name), obs.KN("row", float64(rc.Row)),
			obs.KN("epoch", float64(rc.Epoch)), obs.KS("worker", worker))
		c.signalLocked()
		return rowResult{Requeued: true}, nil
	}
	if row.err != nil {
		return rowResult{refusal: refuse(row.err)}, nil
	}
	// Attestation: the digest must hash exactly the planes shipped.
	// A mismatch means the payload was damaged in flight or the worker
	// attested bytes it did not send — either way these planes must
	// not reach the journal, and retrying the identical payload cannot
	// succeed (400, not 409).
	if rc.Digest != row.digest {
		c.mBadAttest.Inc()
		c.emit("bad-attest", js, rs.span, obs.KS("job", js.job.Name), obs.KN("row", float64(rc.Row)),
			obs.KS("worker", worker), obs.KS("digest", rc.Digest), obs.KS("want", row.digest))
		return rowResult{refusal: refuse(fmt.Errorf("%w: %s row %d digest %q does not hash the shipped planes (%s)",
			errBadAttest, js.job.Name, rc.Row, rc.Digest, row.digest))}, nil
	}
	l := &landing{rs: rs, rc: rc, row: row, accept: true}
	if rs.pending || verifySelected(js.job.Seed, rc.Row, c.opt.VerifyFraction) {
		c.voteLocked(l, worker)
	}
	return rowResult{}, l
}

// voteLocked decides an attested row in the re-verification sample: its
// claim is ledgered as a vote, and the row settles only when two
// distinct workers agree on its digest — then every dissenting vote is
// a proven lie. A lone worker re-voting its own digest after the grace
// window settles the row unverified (availability over byzantine
// safety when no independent worker exists). Otherwise the vote is
// held. Caller holds c.mu.
func (c *Coordinator) voteLocked(l *landing, worker string) {
	l.vote = true
	agree := 1 // the incoming claim
	revote := false
	for _, v := range l.rs.votes {
		if v.worker == worker {
			revote = true
			continue // superseded by the incoming claim
		}
		if v.digest == l.rc.Digest {
			agree++
		} else {
			l.dissent = append(l.dissent, v)
		}
	}
	graceOver := revote && !l.rs.lastVote.IsZero() && c.now().Sub(l.rs.lastVote) >= 2*c.opt.DefaultTTL
	l.verified = agree >= 2
	l.accept = l.verified || graceOver
}

// landLocked makes a complete's votes and accepts durable and then
// applies them, fsync before ack: the accepted rows' records go to
// js's journal in one append (the source of truth for done-ness), then
// every vote and complete record to the ledger in one append (the
// audit trail), then both appends' bytes to the replication stream in
// one publish, so no tail splits the batch.
// A crash between the two appends recovers the rows as done from the
// journal, so the ledger's complete records are best-effort audit, not
// load-bearing state. When an append fails, every row of the landing
// is refused and nothing changes in memory, so the worker's retry lands
// them anew. Caller holds c.mu.
func (c *Coordinator) landLocked(js *jobState, worker string, lands []landing, resp *completeResponse) {
	if len(lands) == 0 {
		return
	}
	var accepted []sweep.RowRecord
	var recs []LedgerRecord
	for _, l := range lands {
		r := l.rc
		if l.vote {
			recs = append(recs, LedgerRecord{Kind: "attest", Job: js.job.Name, Row: r.Row,
				Epoch: r.Epoch, Worker: worker, Digest: r.Digest})
		}
		if l.accept {
			accepted = append(accepted, l.row.rec)
			recs = append(recs, LedgerRecord{Kind: "complete", Job: js.job.Name, Row: r.Row,
				Epoch: r.Epoch, Worker: worker, Digest: r.Digest, Verified: l.verified})
		}
	}
	refuseAll := func(err error) {
		for _, l := range lands {
			resp.Rows[l.i] = rowResult{refusal: refuse(err)}
		}
	}
	start := time.Now()
	var msgs []replMsg
	if len(accepted) > 0 {
		framed, err := js.job.Journal.AppendRecord(accepted...)
		if err != nil {
			refuseAll(err)
			return
		}
		c.mJournalAppends.Inc()
		msgs = append(msgs, replMsg{Append: true,
			replFile: replFile{Name: filepath.Base(js.job.Journal.Path()), Data: framed}})
	}
	frames, err := c.ledgerAppend(recs)
	// The journal append stands even when the ledger's fails, so the
	// standby gets it either way.
	msgs = append(msgs, frames...)
	c.repl.publish(msgs...)
	if c.opt.Sink != nil {
		bytes := 0
		for _, m := range msgs {
			bytes += len(m.Data)
		}
		c.span("complete.land", js.job.Trace, start, len(lands), bytes)
	}
	if err != nil {
		refuseAll(err)
		return
	}
	for k := range lands {
		resp.Rows[lands[k].i] = c.applyLocked(js, &lands[k], worker)
	}
	c.signalLocked()
}

// applyLocked settles a landed row in memory: a held vote releases the
// row for an independent re-execution; an accept marks the row done,
// tells OnRow it is journaled and quarantines every worker whose vote
// it proves a lie. Caller holds c.mu.
func (c *Coordinator) applyLocked(js *jobState, l *landing, worker string) rowResult {
	rs, r := l.rs, l.rc.Row
	if l.vote {
		c.emit("attest", js, rs.span, obs.KS("job", js.job.Name), obs.KN("row", float64(r)),
			obs.KN("epoch", float64(l.rc.Epoch)), obs.KS("worker", worker), obs.KS("digest", l.rc.Digest))
	}
	if !l.accept {
		now := c.now()
		replaced := false
		for i := range rs.votes {
			if rs.votes[i].worker == worker {
				rs.votes[i] = rowVote{worker: worker, digest: l.rc.Digest, epoch: l.rc.Epoch}
				replaced = true
			}
		}
		if !replaced {
			rs.votes = append(rs.votes, rowVote{worker: worker, digest: l.rc.Digest, epoch: l.rc.Epoch})
		}
		rs.pending = true
		rs.lastVote = now
		// Release the row for an independent re-execution; the voter's
		// part is done.
		rs.expiry = now
		rs.releasedEarly = true
		return rowResult{PendingVerify: true}
	}
	// If the row was invalidated earlier, its journal record supersedes
	// the retracted bytes: journal replay is last-record-wins per kernel.
	rs.done = true
	rs.digest, rs.verified, rs.completedBy = l.rc.Digest, l.verified, worker
	rs.pending, rs.votes = false, nil
	if js.job.OnRow != nil {
		js.job.OnRow(r, true)
	}
	c.mCompleted.Inc()
	if l.verified {
		c.mVerified.Inc()
	}
	c.emit("complete", js, rs.span, obs.KS("job", js.job.Name), obs.KN("row", float64(r)),
		obs.KN("epoch", float64(l.rc.Epoch)), obs.KS("worker", worker), obs.KB("verified", l.verified))
	if l.verified {
		for _, v := range l.dissent {
			c.quarantineLocked(js, v.worker, js.job.Name, r, v.digest)
		}
	}
	return rowResult{Verified: l.verified}
}

// completeRow is an OK complete's row as the coordinator accepts it:
// the row's journal record over the received planes, which passed its
// hygiene checks, and that record's digest. err is the verdict on a
// payload that failed them.
type completeRow struct {
	rec    sweep.RowRecord
	digest string
	err    error
}

// checkAll prepares a complete's rows for the verdicts (checkRow).
func checkAll(js *jobState, rows []rowComplete) []completeRow {
	out := make([]completeRow, len(rows))
	for i := range rows {
		out[i] = checkRow(js, rows[i])
	}
	return out
}

// checkRow prepares an OK complete's row for the verdict. It reads only
// js's immutable registration (space and kernel names), so it needs no
// lock; a nil job, an out-of-range row or a not-OK complete prepare
// nothing, because the verdict rejects them first.
func checkRow(js *jobState, req rowComplete) completeRow {
	if js == nil || !req.OK || req.Row < 0 || req.Row >= len(js.rows) {
		return completeRow{}
	}
	rec, err := sweep.PackedRecord(js.job.Kernels[req.Row].Name, js.job.Space.Size(), req.Planes)
	if err != nil {
		return completeRow{err: fmt.Errorf("dist: complete for %s row %d has %v", js.job.Name, req.Row, err)}
	}
	return completeRow{rec: rec, digest: sweep.RecordDigest(rec)}
}

// quarantineLocked charges worker a proven lie — its digest lost a
// vote on job's row — and fences it fleet-wide, because honest workers
// never lose a vote (seeded determinism makes honest re-executions
// bit-identical). Future acquires, renews and completes are rejected;
// its live leases are revoked for immediate re-lease; and every
// unverified row it completed in a job still registered is retracted
// and reopened — graceful degradation, because healthy workers pick the
// rows back up on their next acquire. A job Run has returned is out of
// reach: its journal belongs to the caller. The strike, quarantine and
// invalidate records go to the ledger in one append, and are
// best-effort audit: the quarantine already holds in memory, failing
// the accepted complete over an audit record would trade integrity for
// bookkeeping, and replay quarantines on either of the first two.
// Caller holds c.mu.
func (c *Coordinator) quarantineLocked(js *jobState, worker, job string, row int, digest string) {
	if c.quarantined[worker] {
		return
	}
	c.quarantined[worker] = true
	recs := []LedgerRecord{
		{Kind: "strike", Job: job, Row: row, Worker: worker, Digest: digest},
		{Kind: "quarantine", Job: job, Row: row, Worker: worker, Digest: digest},
	}
	c.mMismatch.Inc()
	c.emit("strike", js, js.job.Trace.SpanID, obs.KS("job", job), obs.KN("row", float64(row)),
		obs.KS("worker", worker), obs.KS("digest", digest))
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
					recs = append(recs, c.invalidateLocked(other, r))
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
	c.logAppend(recs...) //nolint:errcheck // best-effort audit
	c.signalLocked()
}

// invalidateLocked retracts a done row and returns the invalidate
// record, naming the worker and digest being withdrawn, for the caller
// to ledger: OnRow hears that the row is no longer journaled, and the
// row reopens pending with the retracted claim
// seeded as a vote — if an honest worker reproduces the digest, the
// values were right after all and one agreement settles the row
// verified. Caller holds c.mu.
func (c *Coordinator) invalidateLocked(js *jobState, r int) LedgerRecord {
	rs := &js.rows[r]
	rec := LedgerRecord{Kind: "invalidate", Job: js.job.Name, Row: r,
		Epoch: rs.epoch, Worker: rs.completedBy, Digest: rs.digest}
	rs.votes = []rowVote{{worker: rs.completedBy, digest: rs.digest, epoch: rs.epoch}}
	rs.done, rs.reused = false, false
	rs.pending = true
	rs.digest, rs.verified, rs.completedBy = "", false, ""
	now := c.now()
	rs.lastVote = now
	rs.expiry = now
	rs.releasedEarly = true
	if js.job.OnRow != nil {
		js.job.OnRow(r, false)
	}
	c.mInvalid.Inc()
	c.emit("invalidate", js, rs.span, obs.KS("job", js.job.Name), obs.KN("row", float64(r)),
		obs.KN("epoch", float64(rs.epoch)))
	return rec
}

// Handler serves the lease protocol under /v1/dist/.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/dist/lease", func(w http.ResponseWriter, r *http.Request) {
		var req acquireRequest
		if !decodeInto(w, r, &req) {
			return
		}
		leases, err := c.lease(r.Context(), req)
		if err != nil {
			writeLeaseError(w, err)
			return
		}
		if len(leases) == 0 {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		// Append-before-ack, replication half: the grant records are on
		// the stream; hold the response until the standby holds them too
		// (bounded — a timeout degrades to async, never fails the
		// lease). Runs after c.mu is released, so a publisher never
		// blocks the snapshot or tail handlers.
		c.replBarrier(c.jobTrace(leases[0].Job), len(leases))
		writeJSON(w, http.StatusOK, acquireResponse{Leases: leases})
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
		start := time.Now()
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		// req's planes alias body: nothing may keep them past this call
		// (checkRow copies each row's planes into its record).
		req, err := decodeComplete(body)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad request body: %v", err)})
			return
		}
		trace := c.jobTrace(req.Job)
		c.span("complete.decode", trace, start, len(req.Rows), len(body))
		resp, err := c.complete(req)
		if err != nil {
			writeLeaseError(w, err)
			return
		}
		// As with grants: the worker's ack means the batch — planes and
		// records — reached the standby (or the barrier degraded and
		// said so on the instruments).
		c.replBarrier(trace, len(req.Rows))
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
		msgs, next, ok := c.repl.tail(cursor, r.URL.Query().Get("log"), longPoll)
		if !ok {
			writeJSON(w, http.StatusConflict, errorBody{
				Error: "cursor outside the retained replication window, or of another log", Code: "out-of-sync"})
			return
		}
		writeBody(w, tailResponse{ID: c.id, Term: term, Next: next, Msgs: msgs}.encode())
	})
	mux.HandleFunc("/v1/ha/snapshot", func(w http.ResponseWriter, r *http.Request) {
		snap, err := c.snapshot()
		if err != nil {
			writeLeaseError(w, err)
			return
		}
		writeBody(w, snap.encode())
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
// standby that cannot catch up from the tail: the ledger and every file
// the stream carried (c.files), whole, and the cursor at which tailing
// resumes. It is taken under c.mu, so the cursor and the files describe
// the same instant.
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
	snap := &haSnapshot{ID: c.id, Log: c.repl.id, Term: c.term, Cursor: c.repl.latest(),
		Files: []replFile{{Name: ledgerName, Data: ledgerBytes}}}
	// A registered job's journal is read as acked (Image); a retired
	// job's takes no more appends, so it is whole on disk, as records are.
	live := map[string]*sweep.Journal{}
	for _, js := range c.jobs {
		live[filepath.Base(js.job.Journal.Path())] = js.job.Journal
	}
	var names []string
	for name := range c.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var b []byte
		var err error
		if j := live[name]; j != nil {
			b, err = j.Image()
		} else {
			b, err = os.ReadFile(c.files[name])
		}
		if err != nil {
			return nil, fmt.Errorf("dist: reading %s for snapshot: %w", name, err)
		}
		snap.Files = append(snap.Files, replFile{Name: name, Data: b})
	}
	return snap, nil
}

// Replicate publishes a record the job owner has just written once at
// path (serve's admission and terminal records), opaque to dist, and
// waits (bounded) for the standby to hold it, as an ack does. Only the
// path is kept: a snapshot reads the file back. Nil data names a file
// from before this coordinator started — a record, or the journal of a
// job that finished — which only a snapshot carries: every standby of
// this log starts from one.
func (c *Coordinator) Replicate(path string, data []byte) {
	c.mu.Lock()
	c.files[filepath.Base(path)] = path
	if data != nil {
		c.repl.publish(replMsg{replFile: replFile{Name: filepath.Base(path), Data: data}})
	}
	c.mu.Unlock()
	if data != nil {
		c.replBarrier(obs.SpanContext{}, 0)
	}
}

// maxBody bounds the request body the coordinator reads. The read
// grows its buffer only with the bytes that arrive, so a claimed
// Content-Length, or a frame's claimed length, costs nothing by itself.
const maxBody = 16 << 20

// readBody reads a POST body whole, answering 4xx itself on failure.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad request body: %v", err)})
		return nil, false
	}
	return body, true
}

// decodeInto parses a JSON POST body, answering 4xx itself on failure.
func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	body, ok := readBody(w, r)
	if !ok {
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad request body: %v", err)})
		return false
	}
	return true
}

// writeLeaseError answers a protocol error with its status and
// envelope (leaseErrorBody).
func writeLeaseError(w http.ResponseWriter, err error) {
	status, body := leaseErrorBody(err)
	writeJSON(w, status, body)
}

// leaseErrorBody maps a protocol error — a whole call's, or one row's
// verdict inside a batch — to its status code and machine code: the
// fences — stale epoch, stale term, deposed, version mismatch,
// quarantine — are 409 (retrying as-is cannot succeed, but the request
// was well-formed), a bad attestation or a row named twice is 400 (the
// payload itself is wrong), unknown rows 404, anything else 500.
func leaseErrorBody(err error) (int, errorBody) {
	body := errorBody{Error: err.Error()}
	switch {
	case errors.Is(err, errStale):
		body.Code = "stale-epoch"
	case errors.Is(err, errStaleTerm):
		body.Code = "stale-term"
	case errors.Is(err, ErrDeposed):
		body.Code = "deposed"
	case errors.Is(err, errVersionMismatch):
		body.Code = "version-mismatch"
	case errors.Is(err, errQuarantined):
		body.Code = "quarantined"
	case errors.Is(err, errBadAttest):
		return http.StatusBadRequest, errorBody{Error: err.Error(), Code: "bad-attestation"}
	case errors.Is(err, errRepeatedRow):
		return http.StatusBadRequest, body
	case errors.Is(err, errUnknown):
		return http.StatusNotFound, body
	default:
		return http.StatusInternalServerError, body
	}
	return http.StatusConflict, body
}

// writeBody answers 200 with a framed body (encodeBody).
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(body)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
