package dist

// Coordinator high availability: a warm standby tails the primary's
// replication stream into a replica of the primary's state directory,
// and promotes itself when the primary goes silent.
//
// The design is pull-based and crash-only, like everything else in
// this repo:
//
//   - The replication stream mirrors the primary's durable writes. A
//     message is a whole file or the next bytes of one, named by its
//     place in the state directory (dist/lease.ledger, <id>.journal,
//     <id>.job, <id>.state), and carries exactly the bytes the primary
//     wrote: the frames of each ledger append, the framed row records
//     of each journal append, a job's journal whole at registration,
//     and each record the job owner writes (Replicate). The primary
//     publishes them into an in-memory replication log with a
//     monotonically increasing cursor.
//   - The standby long-polls GET /v1/ha/tail?cursor=N&log=L, which
//     answers the messages from N on up to maxTailBytes, and applies
//     each message exactly once: it checks the message, then writes a
//     whole file atomically or appends — a tail's appends in one append
//     per file, fsynced before it advances its cursor — and the next
//     tail request's cursor acknowledges everything before it. A
//     standby that falls off the log's retained window — or starts
//     empty — resyncs from GET /v1/ha/snapshot: the ledger and every
//     journal and record the stream carried, a finished job's too,
//     whole, taken under the coordinator lock. Both answers are durable frames: a
//     JSON header naming each message or file and its length, then
//     each one's bytes in a frame of its own.
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
// So the standby's directory is the primary's, byte for byte, and a
// failover is a restart: the job owner recovers over the replica as
// over its own directory, and a job's matrix, which its journal and
// terminal record are, stays byte-identical to a single-node run
// across a failover, also for a job that finished before it or before
// the standby first synced. The standby holds no file open and no job
// state. What it checks before it writes is what recovery would
// refuse: a name outside its directory, an append to anything but the
// ledger or a journal it holds, and bytes that are not whole ledger
// frames or journal records of the journal's own space.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpuscale/internal/durable"
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

// ledgerName is the lease ledger's place in a state directory: serve's
// records and journals lie at its top, the coordinator's ledger in
// dist/.
const ledgerName = "dist/lease.ledger"

// replFile is one file of the primary's state directory on the
// replication stream, named by its place there (ledgerName,
// <id>.journal, <id>.job, <id>.state), with bytes the primary wrote to
// it. On the wire the header carries Len, and Data follows in a frame
// of its own when it is not empty (encodeBody).
type replFile struct {
	Name string `json:"name"`
	Len  int    `json:"len,omitempty"`
	Data []byte `json:"-"`
}

// replMsg is one replication-stream message: a whole file, or, when
// Append is set, the next bytes of one — a ledger append's frames, or
// the framed row records a journal append wrote.
type replMsg struct {
	Cursor int64 `json:"cursor"`
	Append bool  `json:"append,omitempty"`
	replFile
}

// tailResponse answers GET /v1/ha/tail.
type tailResponse struct {
	ID   string    `json:"id"`
	Term uint64    `json:"term"`
	Next int64     `json:"next"`
	Msgs []replMsg `json:"msgs,omitempty"`
}

// haSnapshot answers GET /v1/ha/snapshot: the primary's durable files,
// whole and consistent with each other, plus the cursor tailing
// resumes from.
type haSnapshot struct {
	ID     string     `json:"id"`
	Log    string     `json:"log"`
	Term   uint64     `json:"term"`
	Cursor int64      `json:"cursor"`
	Files  []replFile `json:"files"`
}

// encode is the tail's body: its header, with each message's Len set,
// then each message's bytes.
func (t tailResponse) encode() []byte {
	data := make([][]byte, len(t.Msgs))
	for i := range t.Msgs {
		data[i] = t.Msgs[i].Data
		t.Msgs[i].Len = len(data[i])
	}
	return encodeBody(t, data)
}

// decodeTail reads a tail's body; each message's Data aliases body.
func decodeTail(body []byte) (tailResponse, error) {
	var t tailResponse
	frames, err := splitBody(body, &t)
	if err == nil {
		err = fillFiles(len(t.Msgs), func(i int) *replFile { return &t.Msgs[i].replFile }, frames)
	}
	return t, err
}

// encode is the snapshot's body: its header, with each file's Len set,
// then each file's bytes.
func (s haSnapshot) encode() []byte {
	data := make([][]byte, len(s.Files))
	for i := range s.Files {
		data[i] = s.Files[i].Data
		s.Files[i].Len = len(data[i])
	}
	return encodeBody(s, data)
}

// decodeSnapshot reads a snapshot's body; each file's Data aliases
// body.
func decodeSnapshot(body []byte) (haSnapshot, error) {
	var s haSnapshot
	frames, err := splitBody(body, &s)
	if err == nil {
		err = fillFiles(len(s.Files), func(i int) *replFile { return &s.Files[i] }, frames)
	}
	return s, err
}

// fillFiles hands each of n files, in order, its bytes: a file whose
// Len is not zero takes the next frame, which must hold exactly Len
// bytes, and every frame must be taken.
func fillFiles(n int, file func(int) *replFile, frames [][]byte) error {
	k := 0
	for i := 0; i < n; i++ {
		f := file(i)
		if f.Len == 0 {
			continue
		}
		if k == len(frames) || len(frames[k]) != f.Len {
			return fmt.Errorf("dist: %q claims %d bytes its frame does not hold", f.Name, f.Len)
		}
		f.Data = frames[k]
		k++
	}
	if k != len(frames) {
		return fmt.Errorf("dist: %d frames for %d files with bytes", len(frames), k)
	}
	return nil
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
// A cursor means something only in the log that numbered it, and a
// restarted primary numbers a new log from 0, so id names this log:
// a snapshot hands it to the standby, and a tail that names another
// log is sent back to resync.
type replLog struct {
	mu   sync.Mutex
	cond *sync.Cond
	id   string
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
	rl := &replLog{id: strconv.FormatUint(rand.Uint64(), 16)}
	rl.cond = sync.NewCond(&rl.mu)
	return rl
}

// publish appends msgs in one step. A tail returns them together unless
// it reaches maxTailBytes among them; a standby that then holds a
// batch's journal rows without its ledger records recovers them as the
// primary recovers a crash between its two appends.
func (rl *replLog) publish(msgs ...replMsg) {
	if len(msgs) == 0 {
		return
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	for _, m := range msgs {
		m.Cursor = rl.base + int64(len(rl.msgs))
		rl.msgs = append(rl.msgs, m)
	}
	// Trim what the standby already has, and bound the backlog: a
	// standby that needs more than the window resyncs via snapshot.
	for len(rl.msgs) > 0 && (rl.base < rl.acked || len(rl.msgs) > replBacklog) {
		rl.msgs[0] = replMsg{}
		rl.msgs = rl.msgs[1:]
		rl.base++
	}
	rl.cond.Broadcast()
}

// latest returns the cursor one past the last published message.
func (rl *replLog) latest() int64 {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.base + int64(len(rl.msgs))
}

// unackedBytes is the bytes of the published messages an attached
// standby has yet to acknowledge; none when no standby is attached.
func (rl *replLog) unackedBytes() int {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	n := 0
	if rl.attached {
		for _, m := range rl.msgs[max(rl.acked-rl.base, 0):] {
			n += len(m.Data)
		}
	}
	return n
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

// maxTailBytes bounds the bytes one tail answer carries, so a standby
// that fell behind catches up over several tails and never holds more
// than one of them: a tail stops before the message that would take it
// past the bound, and a message larger than the bound travels alone.
const maxTailBytes = 1 << 20

// tail serves one tail request: cursor acknowledges everything below
// it, then the call long-polls (bounded by wait) for messages at or
// past it, and answers those up to maxTailBytes. ok is false, and
// nothing is acknowledged, when log is not this log's id or the cursor
// is outside the retained window.
func (rl *replLog) tail(cursor int64, log string, wait time.Duration) (msgs []replMsg, next int64, ok bool) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	rl.lastTail = time.Now()
	rl.attached = true
	rl.everTailed = true
	if log != rl.id || cursor < rl.base || cursor > rl.base+int64(len(rl.msgs)) {
		return nil, 0, false
	}
	if cursor > rl.acked {
		rl.acked = cursor
		rl.cond.Broadcast()
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
	if cursor < rl.base {
		return nil, 0, false
	}
	size := 0
	for _, m := range rl.msgs[cursor-rl.base:] {
		if size += len(m.Data); len(msgs) > 0 && size > maxTailBytes {
			break
		}
		msgs = append(msgs, m)
	}
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
// replication stream into a replica of the primary's state directory
// and can promote itself into a full Coordinator when the primary goes
// silent. It holds no file open and no job state: every message lands
// in one write of one file.
type Standby struct {
	dir    string
	o      StandbyOptions
	client *http.Client
	now    func() time.Time

	mu   sync.Mutex
	term uint64
	// log names the primary's replication log cursor counts in.
	log         string
	cursor      int64
	synced      bool
	lastContact time.Time
	promoted    *Coordinator

	mTerm, mCursor                                     *obs.Gauge
	mFailovers, mApplyFails, mLedgerApps, mJournalApps *obs.Counter
}

// NewStandby opens (or resumes) a standby whose replica directory is
// dir: its ledger lives in dir/dist, as the primary's does. The first
// contact with the primary always starts from a snapshot: the
// replication cursor is process-local, so a restarted standby re-bases
// before tailing.
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
	if err := os.MkdirAll(filepath.Join(dir, "dist"), 0o755); err != nil {
		return nil, fmt.Errorf("dist: creating standby dir: %w", err)
	}
	s := &Standby{dir: dir, o: o, client: o.Client, now: o.now}
	if s.client == nil {
		s.client = &http.Client{Timeout: 10 * time.Second}
	}
	if s.now == nil {
		s.now = time.Now
	}
	// A replica ledger left by an earlier run names the term this
	// standby may promote past, even before it reaches the primary.
	led, rec, err := openLedger(s.ledgerPath())
	if err != nil {
		return nil, err
	}
	led.Close()
	s.term = rec.term
	s.lastContact = s.now()
	r := o.Metrics
	if r == nil {
		r = obs.NewRegistry()
	}
	s.mTerm = r.Gauge("dist_ha_term", "Coordinator term this process believes is current.")
	s.mCursor = r.Gauge("dist_repl_applied_cursor", "Replication cursor durably applied by this standby.")
	s.mFailovers = r.Counter("dist_ha_failovers_total", "Standby promotions performed by this process.")
	s.mApplyFails = r.Counter("dist_repl_apply_failures_total", "Answered tails and snapshots this standby could not apply.")
	s.mLedgerApps = r.Counter("dist_standby_ledger_appends_total", "Replica-ledger appends, each one write and one fsync of one or more frames.")
	s.mJournalApps = r.Counter("dist_standby_journal_appends_total", "Replica-journal appends, each one write and one fsync of one or more rows.")
	s.mTerm.Set(float64(s.term))
	return s, nil
}

// ledgerPath is the replica ledger: dist/lease.ledger, where the
// promoted coordinator opens it.
func (s *Standby) ledgerPath() string { return filepath.Join(s.dir, ledgerName) }

// check checks one replicated file before any of it is written, and
// returns where it lands in the replica directory and, for the ledger,
// the highest term its frames assert. The name must be a plain file
// name or the ledger's, so nothing lands outside the directory; only
// the ledger and journals take appends; a ledger's bytes must be whole
// ledger frames, after its magic when the ledger is whole; and a
// journal's must pass sweep.CheckReplica, so an append needs a replica
// journal to follow.
func (s *Standby) check(f replFile, appended bool) (path string, term uint64, err error) {
	name := f.Name
	switch {
	case name == ledgerName:
		off := int64(0)
		if !appended {
			if !bytes.HasPrefix(f.Data, []byte(ledgerMagic)) {
				err = errors.New("not a lease ledger")
				break
			}
			off = int64(len(ledgerMagic))
		}
		recs, good := scanLedger(f.Data, off)
		if good < int64(len(f.Data)) {
			err = fmt.Errorf("no ledger record at byte %d", good)
		}
		for _, rec := range recs {
			if rec.Kind == "term" {
				term = max(term, rec.Term)
			}
		}
		path = s.ledgerPath()
	case name == "" || name == "." || name == ".." || strings.ContainsAny(name, `/\`):
		err = errors.New("not a plain file name")
	case strings.HasSuffix(name, ".journal"):
		path = filepath.Join(s.dir, name)
		err = sweep.CheckReplica(path, f.Data, appended)
	case appended:
		err = errors.New("only the ledger and journals take appends")
	default:
		path = filepath.Join(s.dir, name)
	}
	if err != nil {
		return "", 0, fmt.Errorf("dist: refusing replicated file %q: %w", name, err)
	}
	return path, term, nil
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
		// Only a failure waits: the primary's barriers wait for a standby
		// only while it tails, so a fresh sync goes straight to tailing.
		if err != nil {
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
	body, decodeErr := io.ReadAll(resp.Body)
	if decodeErr == nil {
		snap, decodeErr = decodeSnapshot(body)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// An answered snapshot is contact even when it cannot be decoded or
	// applied: the primary is alive, and promoting over it would depose
	// it. The failure is counted, and the standby fetches a fresh
	// snapshot next round.
	s.touchLocked()
	if decodeErr != nil {
		s.mApplyFails.Inc()
		return fmt.Errorf("dist: decoding snapshot: %w", decodeErr)
	}
	if err := s.applySnapshotLocked(snap); err != nil {
		s.mApplyFails.Inc()
		return err
	}
	s.o.Logf("dist standby %s: synced snapshot from %s (term %d, cursor %d, %d files)",
		s.o.ID, snap.ID, snap.Term, snap.Cursor, len(snap.Files))
	return nil
}

// applySnapshotLocked makes the replica the snapshot's: every file is
// checked, then every file is written whole. A snapshot must hold the
// ledger, whose terms the standby adopts. A file the snapshot does not
// list — a journal of a job that left the primary while the standby
// was away — is kept as it is.
func (s *Standby) applySnapshotLocked(snap haSnapshot) error {
	paths := make([]string, len(snap.Files))
	term, ledger := uint64(0), false
	for i := range snap.Files {
		var err error
		var t uint64
		if paths[i], t, err = s.check(snap.Files[i], false); err != nil {
			return err
		}
		term = max(term, t)
		ledger = ledger || snap.Files[i].Name == ledgerName
	}
	if !ledger {
		return fmt.Errorf("dist: snapshot holds no lease ledger")
	}
	for i, f := range snap.Files {
		if err := durable.WriteFile(paths[i], durable.Bytes(f.Data)); err != nil {
			return fmt.Errorf("dist: persisting snapshot file %s: %w", f.Name, err)
		}
	}
	s.term = term
	s.log, s.cursor = snap.Log, snap.Cursor
	s.synced = true
	s.mTerm.Set(float64(s.term))
	s.mCursor.Set(float64(s.cursor))
	return nil
}

// tailOnce runs one tail round trip and applies what it returns.
func (s *Standby) tailOnce(ctx context.Context) error {
	s.mu.Lock()
	cursor, log := s.cursor, s.log
	s.mu.Unlock()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		s.o.Primary+"/v1/ha/tail?cursor="+strconv.FormatInt(cursor, 10)+"&log="+url.QueryEscape(log), nil)
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
		// Fell off the retained window, or the primary restarted and
		// numbers a new log: resync from a fresh snapshot.
		s.mu.Lock()
		s.synced = false
		s.touchLocked()
		s.mu.Unlock()
		return nil
	default:
		return fmt.Errorf("dist: tail: %s answered %d", s.o.Primary, resp.StatusCode)
	}
	var tr tailResponse
	body, decodeErr := io.ReadAll(resp.Body)
	if decodeErr == nil {
		tr, decodeErr = decodeTail(body)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// An answered tail is contact even when it cannot be decoded or a
	// message is refused: the primary is alive, and promoting over it
	// would depose it. The failure is counted (Run logs it) and the
	// cursor stays on the failing message, so the next tail retries it
	// and the primary's barrier sees the standby fall behind.
	s.touchLocked()
	if decodeErr != nil {
		s.mApplyFails.Inc()
		return fmt.Errorf("dist: decoding tail: %w", decodeErr)
	}
	defer func() { s.mCursor.Set(float64(s.cursor)) }()
	var st staged
	next := s.cursor
	var applyErr error
	for i := range tr.Msgs {
		m := &tr.Msgs[i]
		if m.Cursor < next {
			continue // retried delivery of something already applied
		}
		if m.Cursor > next {
			s.synced = false // a gap: resync
			break
		}
		if applyErr = s.stageLocked(&st, m); applyErr != nil {
			break
		}
		next++
	}
	if err := s.flushLocked(&st); err != nil {
		// A replica file may hold part of what was staged: rewrite them
		// all from a snapshot rather than append it twice.
		s.synced = false
		s.mApplyFails.Inc()
		return err
	}
	s.cursor = next
	if applyErr != nil {
		s.mApplyFails.Inc()
	}
	return applyErr
}

func (s *Standby) touchLocked() { s.lastContact = s.now() }

// staged is what a tail stages for the disk: the bytes to append to
// each replica journal and to the ledger, in stream order per file, and
// the highest term a ledger frame asserts. failed is a flush that
// failed part way, after which a replica file may hold part of it. The
// primary bounds a tail's bytes (maxTailBytes), so a tail's appends
// land in one flush.
type staged struct {
	journals []string
	rows     map[string][]byte
	frames   []byte
	term     uint64
	failed   error
}

// stageLocked checks one message and lands it: an append is staged for
// flushLocked, and a whole file first flushes what is staged, then is
// written at once. Caller holds s.mu.
func (s *Standby) stageLocked(st *staged, m *replMsg) error {
	path, term, err := s.check(m.replFile, m.Append)
	switch {
	case err != nil:
		return err
	case m.Append && m.Name == ledgerName:
		st.frames = append(st.frames, m.Data...)
		st.term = max(st.term, term)
		return nil
	case m.Append:
		if st.rows == nil {
			st.rows = map[string][]byte{}
		}
		if _, ok := st.rows[path]; !ok {
			st.journals = append(st.journals, path)
		}
		st.rows[path] = append(st.rows[path], m.Data...)
		return nil
	}
	if err := s.flushLocked(st); err != nil {
		return err
	}
	if err := durable.WriteFile(path, durable.Bytes(m.Data)); err != nil {
		return fmt.Errorf("dist: writing replicated file %s: %w", m.Name, err)
	}
	if m.Name == ledgerName {
		s.term = term
		s.mTerm.Set(float64(s.term))
	}
	return nil
}

// flushLocked lands what is staged, fsync before the cursor advance
// that acknowledges it: each replica journal's rows in one append, then
// the ledger frames in one append — journal before ledger, as on the
// primary. Once a flush fails it keeps failing. Caller holds s.mu.
func (s *Standby) flushLocked(st *staged) error {
	if st.failed != nil {
		return st.failed
	}
	for _, path := range st.journals {
		if err := durable.AppendFile(path, st.rows[path]); err != nil {
			st.failed = fmt.Errorf("dist: appending to replica journal %s: %w", filepath.Base(path), err)
			return st.failed
		}
		s.mJournalApps.Inc()
	}
	if len(st.frames) > 0 {
		if err := durable.AppendFile(s.ledgerPath(), st.frames); err != nil {
			st.failed = fmt.Errorf("dist: appending ledger record: %w", err)
			return st.failed
		}
		s.mLedgerApps.Inc()
	}
	if st.term > s.term {
		s.term = st.term
		s.mTerm.Set(float64(s.term))
	}
	*st = staged{}
	return nil
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

// Handler serves the standby's probe surface: /v1/ha/status answers
// term probes, and the lease protocol and the job API a typed 503
// ("not-primary"), so a worker or client with this standby in its peer
// list rotates on instead of hanging or reading "no such job". After
// promotion the caller should swap in the primary's handlers; until
// then this one answers status with the promoted term.
func (s *Standby) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/ha/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Status())
	})
	notPrimary := func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusServiceUnavailable,
			errorBody{Error: errNotPrimary.Error(), Code: "not-primary"})
	}
	for _, path := range []string{"/v1/dist/", "/v1/jobs", "/v1/jobs/"} {
		mux.HandleFunc(path, notPrimary)
	}
	return mux
}

// Promote turns the replica into a live Coordinator over its dist/
// directory: the replica ledger is replayed with the same
// conservative-expiry recovery a crash-restart uses, and the new
// coordinator asserts term+1 in the ledger — from which point the old
// primary's term is fenced everywhere. It registers no job: the replica
// journals belong to the job owner, which recovers over the replica
// directory as it does over its own and registers every job it finds
// open.
func (s *Standby) Promote() (*Coordinator, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted != nil {
		return s.promoted, nil
	}
	opt := s.o.Coordinator
	if opt.ID == "" {
		opt.ID = s.o.ID
	}
	if opt.now == nil {
		opt.now = s.o.now
	}
	opt.initialTerm = s.term + 1
	c, err := NewCoordinator(filepath.Join(s.dir, "dist"), opt)
	if err != nil {
		return nil, fmt.Errorf("dist: promoting standby: %w", err)
	}
	s.mFailovers.Inc()
	s.mTerm.Set(float64(c.Term()))
	s.o.Logf("dist standby %s: promoted to primary at term %d", s.o.ID, c.Term())
	s.promoted = c
	return c, nil
}
