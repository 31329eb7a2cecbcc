package dist

// Coordinator high availability: a warm standby tails the primary's
// lease ledger over a typed HTTP replication stream and promotes
// itself when the primary goes silent.
//
// The design is pull-based and crash-only, like everything else in
// this repo:
//
//   - The primary publishes every durable event — ledger frames (the
//     exact CRC-framed bytes it fsynced), job specs, completed row
//     planes, and a job's departure once its Run returns — into an
//     in-memory replication log with a monotonically increasing
//     cursor. A departed job leaves the standby too, so the replica
//     holds only the jobs the primary still runs.
//   - The standby long-polls GET /v1/ha/tail?cursor=N, applies each
//     message exactly once (fsync before advancing its cursor), and
//     the next tail request's cursor acknowledges everything before
//     it. A standby that falls off the log's retained window — or
//     starts empty — resyncs from GET /v1/ha/snapshot, a full
//     consistent copy taken under the coordinator lock.
//   - Synchronous append-before-ack: the lease and complete handlers
//     wait (bounded) for the attached standby's cursor to pass the
//     records they appended before answering the worker, so anything
//     a worker saw acked survives a primary loss. If the standby lags
//     past the timeout the primary degrades to async — availability
//     over durability, surfaced on the replication-lag instruments —
//     and the protocol's fencing absorbs whatever the failover then
//     loses (an unreplicated complete is simply re-executed).
//   - Terms fence the deposed. Promotion replays the replica ledger
//     with the same conservative-expiry rules a crash-restart uses,
//     then asserts term+1 in a ledger "term" record. Every lease
//     carries its grant term; a deposed primary's leases die with a
//     typed 409 ("stale-term"), the deposed primary itself learns of
//     its deposition from peer probes, worker traffic carrying a
//     newer term, or tail silence — and exits through ErrDeposed.
//
// Because the standby appends the primary's exact ledger frames, and
// validates each row's packed planes with the primary's checks before
// rendering the same journal record the primary journaled, the
// promoted coordinator's durable state is byte-identical to the
// primary's — the job's matrix stays byte-identical to a single-node
// run across a failover, which is the repo's north-star invariant.

import (
	"bytes"
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

// ErrDeposed reports this coordinator lost its term: a peer asserted
// a newer one (a standby promoted while we were gone) or the attached
// standby went silent past the self-fence deadline. A deposed
// coordinator fences every protocol call with a typed 409 and its
// process should exit with the documented distinct code.
var ErrDeposed = errors.New("dist: coordinator deposed: a newer term is live")

// errNotPrimary marks a protocol call answered by a warm standby that
// has not promoted — the worker should try the next peer.
var errNotPrimary = errors.New("dist: not primary: warm standby has not promoted")

// JobSpec is the wire form of a dist Job — everything a standby needs
// to re-register the job at promotion (the OnRow hook and the journal
// handle, which belong to the primary's serve layer, do not
// replicate).
type JobSpec struct {
	Name        string          `json:"name"`
	Kernels     json.RawMessage `json:"kernels"` // kernel.WriteAll wire form
	Space       hw.Space        `json:"space"`
	Seed        int64           `json:"seed"`
	NoiseStdDev float64         `json:"noise_stddev,omitempty"`
	Engine      string          `json:"engine"`
	Traceparent string          `json:"traceparent,omitempty"`
}

// specForJob captures a registered job for the replication stream.
func specForJob(job Job) (JobSpec, error) {
	var buf bytes.Buffer
	if err := kernel.WriteAll(&buf, job.Kernels); err != nil {
		return JobSpec{}, fmt.Errorf("dist: encoding job spec: %w", err)
	}
	return JobSpec{
		Name: job.Name, Kernels: buf.Bytes(), Space: job.Space,
		Seed: job.Seed, NoiseStdDev: job.NoiseStdDev, Engine: job.Engine.String(),
		Traceparent: job.Trace.Traceparent(),
	}, nil
}

// job rebuilds the registrable Job. The trace context round-trips, so
// a promoted coordinator's grants stay stitched to the original
// submission's trace.
func (s JobSpec) job() (Job, error) {
	ks, err := kernel.ReadAll(bytes.NewReader(s.Kernels))
	if err != nil {
		return Job{}, fmt.Errorf("dist: decoding job spec %s: %w", s.Name, err)
	}
	space, err := hw.NewSpace(s.Space.CUCounts, s.Space.CoreClocksMHz, s.Space.MemClocksMHz)
	if err != nil {
		return Job{}, fmt.Errorf("dist: job spec %s: %w", s.Name, err)
	}
	engine, err := sweep.ParseEngine(s.Engine)
	if err != nil {
		return Job{}, fmt.Errorf("dist: job spec %s: %w", s.Name, err)
	}
	j := Job{Name: s.Name, Kernels: ks, Space: space, Seed: s.Seed,
		NoiseStdDev: s.NoiseStdDev, Engine: engine}
	if sc, err := obs.ParseTraceparent(s.Traceparent); err == nil {
		j.Trace = sc
	}
	return j, nil
}

// RowPlanes is one completed row's measurement planes on the
// replication stream — the ledger's complete record carries only the
// digest, so the planes travel as their own message, in the packed
// form a complete carries them (see packPlanes), and the standby
// renders and appends the row's journal record itself.
type RowPlanes struct {
	Job    string `json:"job"`
	Row    int    `json:"row"`
	Kernel string `json:"kernel"`
	Planes []byte `json:"planes"`
}

// replMsg is one replication-stream message.
type replMsg struct {
	Cursor int64  `json:"cursor"`
	Kind   string `json:"kind"` // "rec" | "job" | "row" | "left"
	// Frame is the exact framed ledger bytes for "rec" — appended
	// verbatim on the standby, so the replica ledger is byte-identical.
	Frame []byte     `json:"frame,omitempty"`
	Job   *JobSpec   `json:"job,omitempty"`
	Row   *RowPlanes `json:"row,omitempty"`
	// Left names the job a "left" message retires: its Run returned on
	// the primary, so the standby forgets it.
	Left string `json:"left,omitempty"`
}

// tailResponse answers GET /v1/ha/tail.
type tailResponse struct {
	ID   string    `json:"id"`
	Term uint64    `json:"term"`
	Next int64     `json:"next"`
	Msgs []replMsg `json:"msgs,omitempty"`
}

// haSnapshot answers GET /v1/ha/snapshot: a consistent full copy of
// the primary's durable state plus the cursor tailing resumes from.
type haSnapshot struct {
	ID     string      `json:"id"`
	Term   uint64      `json:"term"`
	Cursor int64       `json:"cursor"`
	Ledger []byte      `json:"ledger"`
	Jobs   []JobSpec   `json:"jobs,omitempty"`
	Rows   []RowPlanes `json:"rows,omitempty"`
}

// HAStatus answers GET /v1/ha/status — the probe surface peers (and
// operators) use to learn who holds which term.
type HAStatus struct {
	ID   string `json:"id"`
	Role string `json:"role"` // "primary", "standby", "deposed"
	Term uint64 `json:"term"`
	// Cursor is the replication cursor: published (primary) or applied
	// (standby).
	Cursor int64 `json:"cursor"`
}

// replBacklog bounds the in-memory replication log. A standby that
// falls further behind than this resyncs from the snapshot instead of
// the tail — and a fleet with no standby at all never retains more.
const replBacklog = 4096

// replLog is the primary-side replication log: cursor-numbered
// messages, the attached standby's acknowledged cursor, and the
// condition variable the synchronous-append barrier waits on. Its
// mutex nests strictly inside the coordinator's (publishes happen
// under c.mu; the tail handler never takes c.mu while holding rl.mu).
type replLog struct {
	mu   sync.Mutex
	cond *sync.Cond
	base int64
	msgs []replMsg
	// acked is the standby's durable cursor: everything below it was
	// fsynced on the replica.
	acked int64
	// attached is live standby presence: set on every tail, cleared
	// when a barrier times out (degrade to async) so one slow poll
	// cannot stall the whole protocol. everTailed is sticky — it arms
	// the self-fence.
	attached   bool
	everTailed bool
	lastTail   time.Time
}

func newReplLog() *replLog {
	rl := &replLog{}
	rl.cond = sync.NewCond(&rl.mu)
	return rl
}

// publish appends one message and returns its cursor.
func (rl *replLog) publish(m replMsg) int64 {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	m.Cursor = rl.base + int64(len(rl.msgs))
	rl.msgs = append(rl.msgs, m)
	// Trim what the standby already has, and bound the backlog: a
	// standby that needs more than the window resyncs via snapshot.
	for len(rl.msgs) > 0 && (rl.base < rl.acked || len(rl.msgs) > replBacklog) {
		rl.msgs[0] = replMsg{}
		rl.msgs = rl.msgs[1:]
		rl.base++
	}
	rl.cond.Broadcast()
	return m.Cursor
}

// latest returns the cursor one past the last published message.
func (rl *replLog) latest() int64 {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.base + int64(len(rl.msgs))
}

// lag returns how many published messages the standby has not yet
// acknowledged.
func (rl *replLog) lag() int64 {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.base + int64(len(rl.msgs)) - rl.acked
}

// waitAcked blocks until the standby's acknowledged cursor reaches
// target, no standby is attached, or the timeout expires. On timeout
// the standby is detached (degrade to async) and false is returned.
func (rl *replLog) waitAcked(target int64, timeout time.Duration) bool {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if !rl.attached || rl.acked >= target {
		return true
	}
	deadline := time.Now().Add(timeout)
	wake := time.AfterFunc(timeout, func() {
		rl.mu.Lock()
		rl.cond.Broadcast()
		rl.mu.Unlock()
	})
	defer wake.Stop()
	for rl.attached && rl.acked < target {
		if !time.Now().Before(deadline) {
			rl.attached = false
			return false
		}
		rl.cond.Wait()
	}
	return true
}

// tail serves one tail request: cursor acknowledges everything below
// it, then the call long-polls (bounded by wait) for messages at or
// past it. ok is false when the cursor fell off the retained window.
func (rl *replLog) tail(cursor int64, wait time.Duration) (msgs []replMsg, next int64, ok bool) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	rl.lastTail = time.Now()
	rl.attached = true
	rl.everTailed = true
	if cursor > rl.acked {
		rl.acked = cursor
		rl.cond.Broadcast()
	}
	if cursor < rl.base {
		return nil, 0, false
	}
	if cursor == rl.base+int64(len(rl.msgs)) && wait > 0 {
		deadline := time.Now().Add(wait)
		wake := time.AfterFunc(wait, func() {
			rl.mu.Lock()
			rl.cond.Broadcast()
			rl.mu.Unlock()
		})
		defer wake.Stop()
		for cursor == rl.base+int64(len(rl.msgs)) && time.Now().Before(deadline) {
			rl.cond.Wait()
		}
	}
	if cursor > rl.base+int64(len(rl.msgs)) {
		return nil, 0, false
	}
	msgs = append(msgs, rl.msgs[cursor-rl.base:]...)
	return msgs, cursor + int64(len(msgs)), true
}

// silentFor reports how long since the last tail, and whether a
// standby ever tailed at all (the self-fence only arms after one
// has).
func (rl *replLog) silentFor(now time.Time) (time.Duration, bool) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if !rl.everTailed {
		return 0, false
	}
	return now.Sub(rl.lastTail), true
}

// fetchHAStatus probes one peer's /v1/ha/status.
func fetchHAStatus(ctx context.Context, client *http.Client, base string) (HAStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/ha/status", nil)
	if err != nil {
		return HAStatus{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return HAStatus{}, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return HAStatus{}, fmt.Errorf("dist: %s/v1/ha/status answered %d", base, resp.StatusCode)
	}
	var st HAStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return HAStatus{}, err
	}
	return st, nil
}

// StandbyOptions configures a warm standby.
type StandbyOptions struct {
	// ID names this standby in term records and status probes.
	ID string
	// Primary is the primary coordinator's base URL.
	Primary string
	// Client is the replication HTTP client; nil uses a default with a
	// timeout comfortably above the tail long-poll.
	Client *http.Client
	// PollEvery is the pause between replication attempts (each tail
	// long-polls server-side, so this mostly paces error retries).
	// Defaults to 100ms.
	PollEvery time.Duration
	// PromoteAfter is the missed-heartbeat deadline: no successful
	// contact with the primary for this long promotes the standby
	// (once it has synced at least once). Defaults to 3s.
	PromoteAfter time.Duration
	// Coordinator is the options template the promoted coordinator is
	// built from — metrics, traces, hooks, TTLs, and its own HA wiring
	// all carry over.
	Coordinator CoordinatorOptions
	// Metrics receives the standby-side HA instruments (term, applied
	// cursor, failover count); nil keeps them in a private registry.
	Metrics *obs.Registry
	// Logf receives replication and promotion log lines; nil discards.
	Logf func(format string, args ...any)
	// now is the clock seam for promotion-deadline tests.
	now func() time.Time
}

// Standby is a warm coordinator replica: it tails the primary's
// replication stream into its own directory and can promote itself
// into a full Coordinator when the primary goes silent.
type Standby struct {
	dir    string
	o      StandbyOptions
	client *http.Client
	now    func() time.Time

	mu          sync.Mutex
	led         *durable.Log
	term        uint64
	cursor      int64
	synced      bool
	lastContact time.Time
	// jobs are the replicated jobs the primary still runs; each one's
	// Journal is its replica journal.
	jobs     map[string]*Job
	promoted *Coordinator

	mTerm, mCursor          *obs.Gauge
	mFailovers, mApplyFails *obs.Counter
}

// NewStandby opens (or resumes) a standby rooted at dir. Existing
// replica state — the ledger, journals and job specs a previous
// incarnation replicated — is reloaded, but the first contact with
// the primary always starts from a snapshot: the replication cursor
// is process-local, so a restarted standby re-bases before tailing.
func NewStandby(dir string, o StandbyOptions) (*Standby, error) {
	if o.Primary == "" {
		return nil, fmt.Errorf("dist: standby needs a primary URL")
	}
	if o.ID == "" {
		o.ID = "standby"
	}
	if o.PollEvery <= 0 {
		o.PollEvery = 100 * time.Millisecond
	}
	if o.PromoteAfter <= 0 {
		o.PromoteAfter = 3 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dist: creating standby dir: %w", err)
	}
	s := &Standby{dir: dir, o: o, client: o.Client, now: o.now, jobs: map[string]*Job{}}
	if s.client == nil {
		s.client = &http.Client{Timeout: 10 * time.Second}
	}
	if s.now == nil {
		s.now = time.Now
	}
	led, rec, err := openLedger(filepath.Join(dir, "lease.ledger"))
	if err != nil {
		return nil, err
	}
	s.led = led
	s.term = rec.term
	if err := s.reloadJobs(); err != nil {
		led.Close()
		return nil, err
	}
	s.lastContact = s.now()
	r := o.Metrics
	if r == nil {
		r = obs.NewRegistry()
	}
	s.mTerm = r.Gauge("dist_ha_term", "Coordinator term this process believes is current.")
	s.mCursor = r.Gauge("dist_repl_applied_cursor", "Replication cursor durably applied by this standby.")
	s.mFailovers = r.Counter("dist_ha_failovers_total", "Standby promotions performed by this process.")
	s.mApplyFails = r.Counter("dist_repl_apply_failures_total", "Answered tails and snapshots this standby could not apply.")
	s.mTerm.Set(float64(s.term))
	return s, nil
}

// reloadJobs reopens every *.jobspec a previous incarnation
// replicated. Caller holds s.mu or has exclusive access.
func (s *Standby) reloadJobs() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".jobspec" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(s.dir, e.Name()))
		if err != nil {
			return err
		}
		var spec JobSpec
		if err := json.Unmarshal(b, &spec); err != nil {
			return fmt.Errorf("dist: corrupt replicated job spec %s: %w", e.Name(), err)
		}
		if err := s.registerJob(spec); err != nil {
			return err
		}
	}
	return nil
}

// registerJob opens (or reopens) one replicated job's journal.
// Idempotent per name.
func (s *Standby) registerJob(spec JobSpec) error {
	if _, ok := s.jobs[spec.Name]; ok {
		return nil
	}
	j, err := spec.job()
	if err != nil {
		return err
	}
	if j.Journal, err = sweep.OpenJournal(s.journalPath(spec.Name), j.Space); err != nil {
		return err
	}
	s.jobs[spec.Name] = &j
	return nil
}

// forgetJobLocked drops a job the primary retired: its replica journal
// is closed, and its spec and journal files are removed, so neither a
// restart (reloadJobs) nor a promotion brings it back. A job the
// standby does not hold is already forgotten. Caller holds s.mu.
func (s *Standby) forgetJobLocked(name string) error {
	if j := s.jobs[name]; j != nil {
		j.Journal.Close()
		delete(s.jobs, name)
	}
	for _, path := range []string{s.specPath(name), s.journalPath(name)} {
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("dist: forgetting job %s: %w", name, err)
		}
	}
	return nil
}

// specPath is where one replicated job spec is persisted.
func (s *Standby) specPath(name string) string {
	return filepath.Join(s.dir, sanitize(name)+".jobspec")
}

// journalPath is one replicated job's replica journal.
func (s *Standby) journalPath(name string) string {
	return filepath.Join(s.dir, sanitize(name)+".journal")
}

// Run replicates until ctx ends or the standby promotes. It returns
// the promoted Coordinator (nil when ctx ended first). The promotion
// rule: no successful primary contact for PromoteAfter, and at least
// one sync has ever landed (a standby that never saw a primary has
// nothing worth promoting).
func (s *Standby) Run(ctx context.Context) (*Coordinator, error) {
	for {
		if ctx.Err() != nil {
			return nil, nil
		}
		var err error
		s.mu.Lock()
		synced := s.synced
		s.mu.Unlock()
		if !synced {
			err = s.syncOnce(ctx)
		} else {
			err = s.tailOnce(ctx)
		}
		if err != nil {
			s.o.Logf("dist standby %s: replication: %v", s.o.ID, err)
		}
		s.mu.Lock()
		quiet := s.now().Sub(s.lastContact)
		canPromote := s.term > 0 && quiet >= s.o.PromoteAfter
		s.mu.Unlock()
		if canPromote {
			s.o.Logf("dist standby %s: primary silent for %v — promoting", s.o.ID, quiet)
			return s.Promote()
		}
		if err != nil || !synced {
			if !sleepCtx(ctx, s.o.PollEvery) {
				return nil, nil
			}
		}
	}
}

// syncOnce fetches and applies a full snapshot, re-basing the cursor.
func (s *Standby) syncOnce(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.o.Primary+"/v1/ha/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("dist: snapshot: %s answered %d", s.o.Primary, resp.StatusCode)
	}
	var snap haSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("dist: decoding snapshot: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// An answered snapshot is contact even when it cannot be applied:
	// the primary is alive, and promoting over it would depose it. The
	// standby stays unsynced and fetches a fresh snapshot next round.
	s.touchLocked()
	if err := s.applySnapshotLocked(snap); err != nil {
		s.mApplyFails.Inc()
		return err
	}
	s.o.Logf("dist standby %s: synced snapshot from %s (term %d, cursor %d, %d jobs)",
		s.o.ID, snap.ID, snap.Term, snap.Cursor, len(snap.Jobs))
	return nil
}

// applySnapshotLocked replaces the replica state wholesale with the
// snapshot: ledger bytes verbatim, journals rebuilt row by row. A job
// the standby held that the snapshot no longer lists left the primary
// while the standby was away, and is forgotten.
func (s *Standby) applySnapshotLocked(snap haSnapshot) error {
	if !bytes.HasPrefix(snap.Ledger, []byte(ledgerMagic)) {
		return fmt.Errorf("dist: snapshot ledger is not a lease ledger")
	}
	s.led.Close()
	listed := map[string]bool{}
	for _, spec := range snap.Jobs {
		listed[spec.Name] = true
	}
	for name, j := range s.jobs {
		if !listed[name] {
			if err := s.forgetJobLocked(name); err != nil {
				return err
			}
			continue
		}
		j.Journal.Close()
	}
	path := filepath.Join(s.dir, "lease.ledger")
	if err := durable.WriteFile(path, durable.Bytes(snap.Ledger)); err != nil {
		return fmt.Errorf("dist: persisting snapshot ledger: %w", err)
	}
	led, rec, err := openLedger(path)
	if err != nil {
		return err
	}
	s.led = led
	s.term = rec.term
	s.jobs = map[string]*Job{}
	for _, spec := range snap.Jobs {
		if err := durable.WriteFile(s.specPath(spec.Name), durable.Bytes(mustJSON(spec))); err != nil {
			return err
		}
		// Journals are rebuilt from the snapshot's rows, not the old
		// replica file: remove first so stale rows cannot linger.
		if err := os.Remove(s.journalPath(spec.Name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		if err := s.registerJob(spec); err != nil {
			return err
		}
	}
	for i := range snap.Rows {
		if err := s.applyRowLocked(&snap.Rows[i]); err != nil {
			return err
		}
	}
	s.cursor = snap.Cursor
	s.synced = true
	s.mTerm.Set(float64(s.term))
	s.mCursor.Set(float64(s.cursor))
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire types marshal by construction
	}
	return b
}

// tailOnce runs one tail round trip and applies what it returns.
func (s *Standby) tailOnce(ctx context.Context) error {
	s.mu.Lock()
	cursor := s.cursor
	s.mu.Unlock()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		s.o.Primary+"/v1/ha/tail?cursor="+strconv.FormatInt(cursor, 10), nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		// Fell off the retained window (or the primary restarted and
		// re-based): resync from a fresh snapshot.
		s.mu.Lock()
		s.synced = false
		s.touchLocked()
		s.mu.Unlock()
		return nil
	default:
		return fmt.Errorf("dist: tail: %s answered %d", s.o.Primary, resp.StatusCode)
	}
	var tr tailResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return fmt.Errorf("dist: decoding tail: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// An answered tail is contact even when a message fails to apply:
	// the primary is alive, and promoting over it would depose it. The
	// failing message is counted (Run logs it) and the cursor stays on
	// it, so the next tail retries it and the primary's barrier sees
	// the standby fall behind.
	s.touchLocked()
	defer func() { s.mCursor.Set(float64(s.cursor)) }()
	for i := range tr.Msgs {
		m := &tr.Msgs[i]
		if m.Cursor < s.cursor {
			continue // retried delivery of something already applied
		}
		if m.Cursor > s.cursor {
			s.synced = false // a gap: resync
			return nil
		}
		if err := s.applyMsgLocked(m); err != nil {
			s.mApplyFails.Inc()
			return err
		}
		s.cursor++
	}
	return nil
}

func (s *Standby) touchLocked() { s.lastContact = s.now() }

// applyMsgLocked applies one replication message, fsync before the
// cursor advance that acknowledges it.
func (s *Standby) applyMsgLocked(m *replMsg) error {
	switch m.Kind {
	case "rec":
		rec, _, ok := parseLedgerRecord(m.Frame, 0)
		if !ok {
			return fmt.Errorf("dist: replicated ledger frame failed its checksum")
		}
		if err := s.led.Append(m.Frame); err != nil {
			return fmt.Errorf("dist: appending ledger record: %w", err)
		}
		if rec.Kind == "term" && rec.Term > s.term {
			s.term = rec.Term
			s.mTerm.Set(float64(s.term))
		}
	case "job":
		if m.Job == nil {
			return fmt.Errorf("dist: job message without a spec")
		}
		if err := durable.WriteFile(s.specPath(m.Job.Name), durable.Bytes(mustJSON(*m.Job))); err != nil {
			return err
		}
		return s.registerJob(*m.Job)
	case "row":
		if m.Row == nil {
			return fmt.Errorf("dist: row message without planes")
		}
		return s.applyRowLocked(m.Row)
	case "left":
		return s.forgetJobLocked(m.Left)
	default:
		return fmt.Errorf("dist: unknown replication message kind %q", m.Kind)
	}
	return nil
}

// applyRowLocked validates one completed row's packed planes with the
// checks the primary applied to the worker's complete, renders the
// row's journal record — the bytes the primary journaled — and
// appends it to the replica journal.
func (s *Standby) applyRowLocked(rp *RowPlanes) error {
	j := s.jobs[rp.Job]
	if j == nil {
		return fmt.Errorf("dist: row planes for unreplicated job %s", rp.Job)
	}
	r := rp.Row
	if r < 0 || r >= len(j.Kernels) || j.Kernels[r].Name != rp.Kernel {
		return fmt.Errorf("dist: row planes for %s name a row/kernel mismatch (%d/%s)", rp.Job, r, rp.Kernel)
	}
	p, err := unpackPlanes(j.Space.Size(), rp.Planes)
	if err != nil {
		return fmt.Errorf("dist: row planes for %s row %d have %v", rp.Job, r, err)
	}
	rec, err := sweep.EncodePlanes(rp.Kernel, p.tput, p.timeNS, p.bound)
	if err != nil {
		return err
	}
	return j.Journal.AppendRecord(rec)
}

// Status reports this standby's probe view.
func (s *Standby) Status() HAStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted != nil {
		return HAStatus{ID: s.o.ID, Role: "primary", Term: s.promoted.Term(), Cursor: s.cursor}
	}
	return HAStatus{ID: s.o.ID, Role: "standby", Term: s.term, Cursor: s.cursor}
}

// Term returns the highest term this standby has replicated (or, once
// promoted, the term it asserted).
func (s *Standby) Term() uint64 { return s.Status().Term }

// Handler serves the standby's probe surface. Lease-protocol paths
// answer a typed 503 ("not-primary") so a worker with this standby in
// its peer list rotates on instead of hanging; /v1/ha/status answers
// term probes. After promotion the caller should swap in the promoted
// Coordinator's Handler — until it does, this handler keeps answering
// status with the promoted term.
func (s *Standby) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/ha/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Status())
	})
	mux.HandleFunc("/v1/dist/", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusServiceUnavailable,
			errorBody{Error: errNotPrimary.Error(), Code: "not-primary"})
	})
	return mux
}

// Promote turns the replica into a live Coordinator: the replica
// ledger is replayed with the same conservative-expiry recovery a
// crash-restart uses, every job the primary still ran is re-registered
// with its reopened replica journal, and the new coordinator asserts
// term+1 in the ledger — from which point the old primary's term is
// fenced everywhere.
func (s *Standby) Promote() (*Coordinator, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted != nil {
		return s.promoted, nil
	}
	s.led.Close()
	opt := s.o.Coordinator
	if opt.ID == "" {
		opt.ID = s.o.ID
	}
	if opt.now == nil {
		opt.now = s.o.now
	}
	opt.initialTerm = s.term + 1
	c, err := NewCoordinator(s.dir, opt)
	if err != nil {
		return nil, fmt.Errorf("dist: promoting standby: %w", err)
	}
	names := make([]string, 0, len(s.jobs))
	for name := range s.jobs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		// A journal's Prior is read when its file is opened: reopen the
		// replica so the promoted coordinator recovers every row
		// streamed since the standby opened it.
		job := s.jobs[name]
		job.Journal.Close()
		j, err := sweep.OpenJournal(s.journalPath(name), job.Space)
		if err == nil {
			job.Journal = j
			err = c.AddJob(*job)
		}
		if err != nil {
			c.Close()
			return nil, err
		}
	}
	s.mFailovers.Inc()
	s.mTerm.Set(float64(c.Term()))
	s.o.Logf("dist standby %s: promoted to primary at term %d (%d jobs)", s.o.ID, c.Term(), len(names))
	s.promoted = c
	return c, nil
}

// Close releases the replica's files. A promoted standby's ledger
// belongs to the Coordinator, but its job journals stay the
// standby's: close the promoted Coordinator first.
func (s *Standby) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.promoted == nil {
		err = s.led.Close()
	}
	for _, j := range s.jobs {
		if cerr := j.Journal.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
