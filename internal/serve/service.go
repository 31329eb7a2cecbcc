package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"gpuscale/internal/durable"
	"gpuscale/internal/fault"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/obs"
	"gpuscale/internal/sweep"
)

// Config sizes the service. Every bound has a safe default; the zero
// value (plus a Dir) is a working single-runner service.
type Config struct {
	// Dir is the state directory: job specs, journals and terminal
	// states all live here, and a job's journal with its terminal record
	// is its matrix. Required.
	Dir string
	// Runners is how many jobs run concurrently. 0 means 1; negative
	// means none (tests drive recovery without execution).
	Runners int
	// SweepWorkers is the per-job sweep parallelism (0 = GOMAXPROCS).
	SweepWorkers int
	// MaxJobs bounds open jobs — queued plus running. Submissions past
	// the bound are shed with 503, never buffered. 0 means 16.
	MaxJobs int
	// Rate and Burst configure the admission token bucket
	// (submissions/second and bucket capacity). Rate 0 disables.
	Rate  float64
	Burst int
	// ClientCap bounds open jobs per client identity. 0 disables.
	ClientCap int
	// MaxDeadline caps (and, for jobs that ask for none, imposes) the
	// per-job deadline. 0 leaves deadlines to the clients.
	MaxDeadline time.Duration
	// DrainGrace is how long Drain lets in-flight jobs keep running
	// before canceling their contexts. 0 cancels immediately —
	// crash-only persistence makes that safe, it just recomputes more
	// rows on the next start.
	DrainGrace time.Duration
	// Retries, Backoff and SimTimeout are the per-cell executor knobs
	// applied to every job (see sweep.Options).
	Retries    int
	Backoff    time.Duration
	SimTimeout time.Duration
	// Breaker is the per-kernel circuit breaker threshold (0 disables).
	Breaker int
	// Fleet, when non-nil, runs each job's sweep in place of the local
	// executor and replicates the service's records. Admission,
	// journaling, terminal-state and recovery semantics are identical
	// on both paths, but a fleet refuses a job's retries field.
	Fleet Fleet
	// Registry receives service metrics; nil creates a private one.
	Registry *obs.Registry
	// Sink, when non-nil, receives shed decisions, admissions, job spans
	// and — via the sweep Observer — the local executor's row and retry
	// events, all carrying the job's distributed trace identity, for the
	// process's trace and flight recorder. Nil keeps the executor on its
	// nil-observer path.
	Sink *obs.Sink
	// Injector, when active, injects deterministic faults into every
	// job's engine calls and journal writes — the chaos-drill hook.
	Injector fault.Injector
	// Now is the clock (tests inject a fake one for the rate limiter).
	Now func() time.Time
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// Fleet is the one seam a distributed coordinator (internal/dist)
// plugs into.
type Fleet interface {
	// RunSweep executes one job's sweep. It receives everything the
	// local path would use, including the job's open journal and the
	// OnRow hook that settles each row into the job's accounts;
	// implementations must append each complete row to the journal
	// before they invoke OnRow with it, and invoke OnRow for every row
	// they settle (or accept that restarts recompute and /matrix shows
	// the row as not yet run).
	RunSweep(ctx context.Context, req SweepRequest) (*sweep.RunReport, error)
	// Replicate hands over a record the service has just written
	// durably, and for good, at path: a job's admission record
	// (<id>.job) or terminal record (<id>.state). It returns once the
	// fleet's standby holds it, or the fleet stops waiting (which it
	// reports itself). The service calls it before it answers the
	// admission or shows the terminal state, and with nil data for each
	// record it recovers at start-up, before any standby can follow it.
	Replicate(path string, data []byte)
}

// SweepRequest is what Fleet.RunSweep receives for one job: the
// resolved work plus the hooks that keep the service's crash-only
// bookkeeping intact however the sweep is executed.
type SweepRequest struct {
	// JobID is the service's job identifier, usable as a distributed
	// job name.
	JobID string
	// Kernels and Space define the matrix.
	Kernels []*kernel.Kernel
	Space   hw.Space
	// Engine, Seed and Noise must be reproduced exactly by whatever
	// executes the sweep — they pin the noise stream byte-identity
	// depends on.
	Engine sweep.Engine
	Seed   int64
	Noise  float64
	// Journal is the job's open journal, its only one: Prior holds the
	// rows recovered from earlier runs, which need not be recomputed,
	// and the executor appends each settled, complete row to it before
	// calling OnRow. The service closes it once RunSweep returns.
	Journal *sweep.Journal
	// OnRow settles a row into the job's accounts (rows_done and
	// coverage); safe for concurrent use. A complete row must be in the
	// journal before OnRow sees it; any other row is one of the job's
	// unjournaled rows, which /matrix renders in place of the journal's
	// record. A settled row is assigned whole and never written again,
	// so the job keeps such a row's slices rather than copying them. A
	// distributed executor may invoke it more than once for the same
	// row: when a quarantined worker's complete is retracted — live, or
	// at registration for a journaled row the ledger retracted before a
	// restart — the retraction arrives as a call with an all-canceled
	// row, and a healthy worker's re-execution as a later one, with the
	// corrected planes (and a second journal append, which supersedes
	// the retracted one: replay is last-record-wins per kernel).
	OnRow func(m *sweep.Matrix, r int)
	// Trace is the job's span context; a distributed executor hands it
	// to the coordinator so lease grants become children of the job
	// span and the whole fleet run stitches into one trace.
	Trace obs.SpanContext
}

// metrics is the service's instrument panel.
type metrics struct {
	queueDepth *obs.Gauge
	openJobs   *obs.Gauge
	shed       map[ShedReason]*obs.Counter
	admitted   *obs.Counter
	recovered  *obs.Counter
	done       map[State]*obs.Counter
	panics     *obs.Counter
	admitLat   *obs.Histogram
	queueWait  *obs.Histogram
}

func newMetrics(reg *obs.Registry) *metrics {
	m := &metrics{
		queueDepth: reg.Gauge("serve_queue_depth", "jobs admitted but not yet running"),
		openJobs:   reg.Gauge("serve_open_jobs", "jobs queued or running"),
		shed:       map[ShedReason]*obs.Counter{},
		admitted:   reg.Counter("serve_jobs_admitted_total", "jobs accepted by admission"),
		recovered:  reg.Counter("serve_jobs_recovered_total", "jobs re-enqueued from disk at startup"),
		done:       map[State]*obs.Counter{},
		panics:     reg.Counter("serve_handler_panics_total", "HTTP handler panics recovered"),
		admitLat: reg.Histogram("serve_admission_latency_seconds", "submission handling latency",
			[]float64{0.0001, 0.001, 0.01, 0.1, 1}),
		queueWait: reg.Histogram("serve_queue_wait_seconds", "admission-to-run queue wait per job",
			[]float64{0.001, 0.01, 0.1, 1, 10, 60, 600}),
	}
	for _, r := range []ShedReason{ShedQueueFull, ShedRateLimited, ShedClientCap, ShedDraining} {
		m.shed[r] = reg.Counter("serve_shed_total", "submissions refused by admission", obs.L("reason", string(r)))
	}
	for _, s := range []State{StateComplete, StateCanceled, StateFailed} {
		m.done[s] = reg.Counter("serve_jobs_done_total", "jobs reaching a terminal state", obs.L("state", string(s)))
	}
	return m
}

// job is the in-memory twin of one admitted job.
type job struct {
	id     string
	client string
	spec   JobSpec
	res    *resolved
	// trace is the job's own span; parent is the submitting client's
	// span ID when the request carried a traceparent header.
	trace    obs.SpanContext
	parent   string
	admitted time.Time

	mu       sync.Mutex
	state    State
	reason   string
	summary  string
	rowsDone int
	okCells  int
	// unjournaled holds, by row, the rows a run settled that its journal
	// does not hold as they are; nil once the terminal record holds them.
	unjournaled  map[int]sweep.Row
	cancel       context.CancelFunc
	userCanceled bool
}

// status renders the client view under the job's lock.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:      j.id,
		Client:  j.client,
		State:   j.state,
		Reason:  j.reason,
		Summary: j.summary,
		Trace:   j.trace.TraceID,
	}
	if j.res != nil {
		st.Kernels = len(j.res.kernels)
		st.Configs = j.res.space.Size()
	}
	st.RowsDone = j.rowsDone
	if j.rowsDone > 0 && st.Configs > 0 {
		st.Coverage = float64(j.okCells) / float64(j.rowsDone*st.Configs)
	}
	return st
}

// Service is the overload-safe sweep job service. Construct with New,
// serve its Handler, stop it with Drain.
type Service struct {
	cfg    Config
	reg    *obs.Registry
	met    *metrics
	bucket *tokenBucket
	caps   *clientCaps

	root       context.Context
	rootCancel context.CancelFunc
	wg         sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond // wakes runners on enqueue and on drain
	jobs     map[string]*job
	order    []string // submission order, for List
	queue    []*job   // FIFO of queued jobs; len(queue) <= open <= MaxJobs
	nextID   int
	open     int // queued + running; the admission bound
	draining bool
}

// New opens (or creates) the state directory, recovers every job it
// finds — terminal jobs reload as history, queued and interrupted jobs
// re-enqueue — and starts the runner pool. The admission bound applies
// to recovery too, by construction: recovered open jobs were all
// admitted under the same bound.
func New(cfg Config) (*Service, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 16
	}
	if cfg.Runners == 0 {
		cfg.Runners = 1
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if err := cfg.Injector.Validate(); err != nil {
		return nil, err
	}
	root, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		reg:        reg,
		met:        newMetrics(reg),
		bucket:     newTokenBucket(cfg.Rate, cfg.Burst, cfg.Now),
		caps:       newClientCaps(cfg.ClientCap),
		root:       root,
		rootCancel: cancel,
		jobs:       map[string]*job{},
	}
	s.cond = sync.NewCond(&s.mu)
	if err := s.recover(); err != nil {
		cancel()
		return nil, err
	}
	for i := 0; i < cfg.Runners; i++ {
		s.wg.Add(1)
		go s.runner()
	}
	return s, nil
}

// Registry exposes the service's metrics registry (for /metrics).
func (s *Service) Registry() *obs.Registry { return s.reg }

// Ready reports whether the service is admitting jobs — false while
// draining, which is what flips /readyz during shutdown.
func (s *Service) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining
}

// recover scans the state directory. A <id>.state file makes a job
// terminal history; a <id>.job without one — whether it never started
// or the previous process died mid-sweep — re-enqueues, exactly as if
// it had just been admitted. Its journal makes the re-run resume
// instead of restart.
func (s *Service) recover() error {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return err
	}
	var ids []string
	for _, e := range entries {
		if n, ok := strings.CutSuffix(e.Name(), ".job"); ok {
			ids = append(ids, n)
		}
	}
	sort.Strings(ids) // job-%06d: lexicographic == admission order
	for _, id := range ids {
		var n int
		if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n >= s.nextID {
			s.nextID = n + 1
		}
		b, err := os.ReadFile(s.jobPath(id))
		if err != nil {
			return err
		}
		var jf jobFile
		if err := json.Unmarshal(b, &jf); err != nil {
			return fmt.Errorf("serve: corrupt job file %s: %w", s.jobPath(id), err)
		}
		s.replicate(s.jobPath(id), nil)
		j := &job{id: id, client: jf.Client, spec: jf.Spec, admitted: time.Now()}
		if sc, err := obs.ParseTraceparent(jf.Trace); err == nil {
			j.trace, j.parent = sc, jf.Parent
		} else {
			// Pre-trace job files (or corrupt ones) still get an identity,
			// so the resumed run is traceable even if not stitched to the
			// original submission.
			j.trace = obs.NewSpanContext()
		}
		if sb, err := os.ReadFile(s.statePath(id)); err == nil {
			var sf stateFile
			if err := json.Unmarshal(sb, &sf); err != nil {
				return fmt.Errorf("serve: corrupt state file %s: %w", s.statePath(id), err)
			}
			s.replicate(s.statePath(id), nil)
			j.state = sf.State
			j.reason = sf.Reason
			j.summary = sf.Summary
			j.rowsDone, j.okCells = sf.RowsDone, sf.OKCells
			if res, rerr := jf.Spec.resolve(s.cfg.MaxDeadline); rerr == nil {
				j.res = res
			}
			s.jobs[id] = j
			s.order = append(s.order, id)
			continue
		} else if !errors.Is(err, os.ErrNotExist) {
			return err
		}
		res, err := jf.Spec.resolve(s.cfg.MaxDeadline)
		if err != nil {
			// The spec was admitted once, so this means the service's
			// corpus or limits changed under it. Settle it as failed
			// rather than crash-looping on it forever.
			j.state = StateFailed
			j.reason = fmt.Sprintf("spec no longer resolvable: %v", err)
			s.jobs[id] = j
			s.order = append(s.order, id)
			if err := s.persistTerminal(id, stateFile{State: StateFailed, Reason: j.reason}); err != nil {
				return err
			}
			continue
		}
		j.res = res
		j.state = StateQueued
		s.jobs[id] = j
		s.order = append(s.order, id)
		s.caps.forceAcquire(jf.Client)
		s.open++
		s.queue = append(s.queue, j)
		s.met.recovered.Inc()
		s.cfg.Logf("serve: recovered %s (%d kernels, %d configs)", id, len(res.kernels), res.space.Size())
	}
	s.met.openJobs.Set(float64(s.open))
	s.met.queueDepth.Set(float64(len(s.queue)))
	return nil
}

// forceAcquire counts an open job against a client without checking
// the cap — recovery restores jobs that were already admitted, and
// refusing them now would lose accepted work.
func (c *clientCaps) forceAcquire(client string) {
	c.mu.Lock()
	c.open[client]++
	c.mu.Unlock()
}

// replicate hands a record just written at path to the fleet
// (Fleet.Replicate); a service without a fleet has no standby.
func (s *Service) replicate(path string, data []byte) {
	if s.cfg.Fleet != nil {
		s.cfg.Fleet.Replicate(path, data)
	}
}

func (s *Service) jobPath(id string) string     { return filepath.Join(s.cfg.Dir, id+".job") }
func (s *Service) statePath(id string) string   { return filepath.Join(s.cfg.Dir, id+".state") }
func (s *Service) journalPath(id string) string { return filepath.Join(s.cfg.Dir, id+".journal") }

// shedding increments the shed counter for reason and records the
// decision in the flight recorder before returning the typed error.
func (s *Service) shedding(reason ShedReason, client string, retry time.Duration) error {
	s.met.shed[reason].Inc()
	s.cfg.Sink.Emit("shed", "serve", 0, obs.SpanContext{}, "", time.Now(), 0,
		obs.KS("reason", string(reason)), obs.KS("client", client))
	return &ShedError{Reason: reason, RetryAfter: retry}
}

// Submit admits one job or sheds it with a typed ShedError, minting a
// fresh trace root for the job. HTTP submissions that carry a
// traceparent go through SubmitTraced instead.
func (s *Service) Submit(client string, spec JobSpec) (JobStatus, error) {
	return s.SubmitTraced(client, spec, obs.SpanContext{})
}

// SubmitTraced is Submit under a caller-supplied trace context: the
// job's span becomes a child of caller, so the submitting process's
// own trace and the fleet's stitch together. An invalid caller mints
// a fresh root. The checks run cheapest-first — drain flag, rate
// limit, then spec resolution, then the per-client and global bounds —
// so overload costs as little as possible per refused request.
func (s *Service) SubmitTraced(client string, spec JobSpec, caller obs.SpanContext) (JobStatus, error) {
	start := time.Now()
	defer func() { s.met.admitLat.Observe(time.Since(start).Seconds()) }()

	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return JobStatus{}, s.shedding(ShedDraining, client, 5*time.Second)
	}
	if ok, wait := s.bucket.take(); !ok {
		return JobStatus{}, s.shedding(ShedRateLimited, client, wait)
	}
	if s.cfg.Fleet != nil && spec.Retries != 0 {
		// Checked here only, not in resolve: a job journaled before this
		// rule still recovers and resumes.
		return JobStatus{}, fmt.Errorf("retries: a fleet job cannot set it; the workers' -retries applies to every cell")
	}
	res, err := spec.resolve(s.cfg.MaxDeadline)
	if err != nil {
		return JobStatus{}, err // client error; the handler maps non-shed errors to 400
	}
	if !s.caps.tryAcquire(client) {
		return JobStatus{}, s.shedding(ShedClientCap, client, 2*time.Second)
	}

	var sc obs.SpanContext
	var parent string
	if caller.Valid() {
		sc, parent = caller.Child(), caller.SpanID
	} else {
		sc = obs.NewSpanContext()
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.caps.release(client)
		return JobStatus{}, s.shedding(ShedDraining, client, 5*time.Second)
	}
	if s.open >= s.cfg.MaxJobs {
		s.mu.Unlock()
		s.caps.release(client)
		return JobStatus{}, s.shedding(ShedQueueFull, client, 2*time.Second)
	}
	id := fmt.Sprintf("job-%06d", s.nextID)
	s.nextID++
	j := &job{id: id, client: client, spec: spec, res: res, state: StateQueued,
		trace: sc, parent: parent, admitted: time.Now()}
	// Persist the admission before announcing it: once Submit returns
	// 202 the job must survive any crash. The trace context rides
	// along, so a recovered job resumes under its original trace ID.
	b, err := json.Marshal(jobFile{ID: id, Client: client, Spec: spec,
		Trace: sc.Traceparent(), Parent: parent})
	if err == nil {
		err = durable.WriteFile(s.jobPath(id), durable.Bytes(b))
	}
	if err != nil {
		s.nextID-- // the slot was never used
		s.mu.Unlock()
		s.caps.release(client)
		return JobStatus{}, fmt.Errorf("serve: persisting admission: %w", err)
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.open++
	s.met.openJobs.Set(float64(s.open))
	s.met.admitted.Inc()
	// The reply is snapshotted before a runner can pick the job up, so
	// it says queued however fast the job starts.
	st := j.status()
	s.mu.Unlock()
	// A fleet's standby holds the admission before a runner can start
	// the job, and before the 202 announces it: a replica never holds a
	// job's journal without its admission record.
	s.replicate(s.jobPath(id), b)
	s.mu.Lock()
	s.queue = append(s.queue, j)
	s.met.queueDepth.Set(float64(len(s.queue)))
	s.cond.Signal()
	s.mu.Unlock()
	s.cfg.Sink.Emit("job.admit", "serve", 0, obs.SpanContext{TraceID: sc.TraceID}, sc.SpanID, time.Now(), 0,
		obs.KS("job", id), obs.KS("client", client), obs.KS("trace", sc.TraceID))
	s.cfg.Logf("serve: admitted %s for %s (%d kernels, %d configs)", id, client, len(res.kernels), res.space.Size())
	return st, nil
}

// ErrNoSuchJob marks lookups of unknown job IDs.
var ErrNoSuchJob = errors.New("serve: no such job")

// Get returns one job's status.
func (s *Service) Get(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrNoSuchJob
	}
	return j.status(), nil
}

// List returns every known job in admission order.
func (s *Service) List() []JobStatus {
	s.mu.Lock()
	js := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		js = append(js, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(js))
	for i, j := range js {
		out[i] = j.status()
	}
	return out
}

// Cancel ends a job early. A queued job settles terminal immediately;
// a running job's context is canceled and its runner settles it with
// every completed row kept. Canceling a terminal job is a no-op.
func (s *Service) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrNoSuchJob
	}
	j.mu.Lock()
	switch {
	case j.state.Terminal():
		j.mu.Unlock()
	case j.state == StateRunning:
		j.userCanceled = true
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	default: // queued: pull it out of the queue and settle it now
		// Mark it terminal under the lock first so a runner that races
		// past the dequeue below still skips it.
		j.userCanceled = true
		j.state = StateCanceled
		j.reason = "canceled by client"
		j.mu.Unlock()
		s.mu.Lock()
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		if err := s.persistTerminal(j.id, stateFile{State: StateCanceled, Reason: "canceled by client"}); err != nil {
			return JobStatus{}, err
		}
		s.settle(j)
	}
	return j.status(), nil
}

// MatrixCSV streams the job's matrix as CSV, rendered from its journal
// and the rows the journal does not hold as they are: for a running
// job the rows settled so far, for a terminal one those its terminal
// record carries. A terminal job an earlier version archived as
// <id>.csv serves that archive as it is. A queued job, and a job
// without a journal or a terminal record to render, answer
// ErrNoSuchJob.
func (s *Service) MatrixCSV(id string, w io.Writer) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return ErrNoSuchJob
	}
	j.mu.Lock()
	state, res, rows := j.state, j.res, maps.Clone(j.unjournaled)
	j.mu.Unlock()
	switch {
	case state.Terminal():
		if f, err := os.Open(filepath.Join(s.cfg.Dir, id+".csv")); err == nil {
			defer f.Close()
			if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
				_, err = io.Copy(w, f)
				return err
			}
		}
		var sf stateFile
		b, err := os.ReadFile(s.statePath(id))
		if err == nil {
			err = json.Unmarshal(b, &sf)
		}
		if err != nil || res == nil {
			return fmt.Errorf("%w: job %s has no terminal record to render (%v)", ErrNoSuchJob, id, err)
		}
		rows = sf.Unjournaled
	case state == StateQueued:
		return fmt.Errorf("%w: job %s has not produced rows yet", ErrNoSuchJob, id)
	}
	names := make([]string, len(res.kernels))
	for r, k := range res.kernels {
		names[r] = k.Name
	}
	out := &countingWriter{w: w}
	err := sweep.WriteJournalCSV(out, s.journalPath(id), res.space, names, rows)
	if err != nil && out.n == 0 {
		// The renderer writes nothing before it has read the journal's
		// head: nothing written means nothing to render.
		return fmt.Errorf("%w: job %s has no journal to render (%v)", ErrNoSuchJob, id, err)
	}
	return err
}

// countingWriter counts the bytes that reach w.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.n += int64(n)
	return n, err
}

// settle releases a job's admission resources after it reaches a
// terminal state.
func (s *Service) settle(j *job) {
	s.caps.release(j.client)
	s.mu.Lock()
	s.open--
	s.met.openJobs.Set(float64(s.open))
	s.met.queueDepth.Set(float64(len(s.queue)))
	s.mu.Unlock()
	j.mu.Lock()
	st := j.state
	j.mu.Unlock()
	if c, ok := s.met.done[st]; ok {
		c.Inc()
	}
}

// persistTerminal writes a job's terminal record, which carries the
// rows its journal does not hold as they are, so that the record and
// the journal are the job's matrix, and hands it to the fleet.
func (s *Service) persistTerminal(id string, sf stateFile) error {
	b, err := json.Marshal(sf)
	if err != nil {
		return err
	}
	if err := durable.WriteFile(s.statePath(id), durable.Bytes(b)); err != nil {
		return err
	}
	s.replicate(s.statePath(id), b)
	return nil
}

// finish settles a job terminally: persistence first, the in-memory
// flip second, so a poller never observes a terminal state whose
// record is not yet durable. A job whose record could not be persisted
// settles as failed for this process's lifetime; with no state record
// on disk, the next start re-enqueues it and its journal resumes it.
// Either way the job lets go of its unjournaled rows: /matrix reads a
// terminal job's from its record, and a job with none answers 404.
func (s *Service) finish(j *job, state State, reason, summary string) {
	j.mu.Lock()
	sf := stateFile{State: state, Reason: reason, Summary: summary, RowsDone: j.rowsDone, OKCells: j.okCells,
		Unjournaled: j.unjournaled}
	j.mu.Unlock()
	if err := s.persistTerminal(j.id, sf); err != nil {
		s.cfg.Logf("serve: %s: persisting terminal state: %v", j.id, err)
		state, reason = StateFailed, fmt.Sprintf("persisting terminal state: %v", err)
	}
	j.mu.Lock()
	j.state, j.reason, j.summary = state, reason, summary
	j.unjournaled = nil
	j.cancel = nil
	j.mu.Unlock()
	s.settle(j)
}

// runner is one worker: it pops queued jobs and runs them until the
// service drains. Jobs still queued when drain begins are left alone —
// their admission records re-enqueue them on the next start.
func (s *Service) runner() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.draining {
			s.cond.Wait()
		}
		if s.draining {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		s.met.queueDepth.Set(float64(len(s.queue)))
		s.mu.Unlock()
		s.runJob(j)
	}
}

// runJob executes one job end to end: journal-backed Resume under the
// job's deadline, then the terminal decision. Interrupted-by-shutdown
// jobs write no terminal record — that is what makes them recoverable.
func (s *Service) runJob(j *job) {
	j.mu.Lock()
	if j.state.Terminal() { // canceled while queued
		j.mu.Unlock()
		return
	}
	s.met.queueWait.Observe(time.Since(j.admitted).Seconds())
	j.state = StateRunning
	ctx := s.root
	var cancel context.CancelFunc
	if j.res.deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, j.res.deadline)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	j.cancel = cancel
	j.unjournaled = map[int]sweep.Row{}
	j.mu.Unlock()
	defer cancel()

	var jopts sweep.JournalOptions
	if s.cfg.Injector.TornWriteRate > 0 {
		jopts.WrapWriter = s.cfg.Injector.WrapWriter
	}
	journal, err := sweep.OpenJournalWith(s.journalPath(j.id), j.res.space, jopts)
	if err != nil {
		s.finish(j, StateFailed, fmt.Sprintf("opening journal: %v", err), "")
		return
	}
	defer journal.Close()
	if rep := journal.Salvage(); rep != nil && rep.DroppedBytes > 0 {
		s.cfg.Logf("serve: %s: journal salvaged: dropped %d bytes (%s)", j.id, rep.DroppedBytes, rep.Reason)
	}

	opts := sweep.Options{
		Workers:     s.cfg.SweepWorkers,
		Engine:      j.res.engine,
		NoiseStdDev: j.spec.Noise,
		Seed:        j.spec.Seed,
		Retries:     max(j.spec.Retries, s.cfg.Retries),
		Backoff:     s.cfg.Backoff,
		SimTimeout:  s.cfg.SimTimeout,
		Breaker:     s.cfg.Breaker,
	}
	if s.cfg.Injector.Active() {
		opts.Row = s.cfg.Injector.WrapRow(j.res.engine.Row())
	}
	if s.cfg.Sink != nil {
		// The local executor's row and retry events join the job's
		// trace; a distributed Fleet.RunSweep gets the same identity via
		// req.Trace instead (its workers emit their own events).
		tel := sweep.NewTelemetry(s.reg, s.cfg.Sink)
		tel.SetSpanContext(j.trace)
		opts.Observer = tel
	}
	// A distributed executor may deliver the same row more than once —
	// a retracted byzantine complete followed by the healthy worker's
	// corrected one — so the counters must be idempotent per row: the
	// second delivery replaces the first instead of double-counting.
	rowSeen := make([]bool, len(j.res.kernels))
	rowOK := make([]int, len(j.res.kernels))
	// settle puts a settled row r into the job's accounts, and into its
	// unjournaled rows unless the journal holds it as it is.
	settle := func(r int, row sweep.Row, journaled bool) {
		ok := 0
		for _, st := range row.Status {
			if st == sweep.StatusOK {
				ok++
			}
		}
		j.mu.Lock()
		if journaled {
			delete(j.unjournaled, r)
		} else {
			j.unjournaled[r] = row
		}
		if !rowSeen[r] {
			rowSeen[r] = true
			j.rowsDone++
		}
		j.okCells += ok - rowOK[r]
		rowOK[r] = ok
		j.mu.Unlock()
	}
	// The rows the run reuses from the journal settle first, on both
	// paths, so a resumed job counts every row it holds.
	if prior := journal.Prior(); prior != nil {
		for r, k := range j.res.kernels {
			if pr := prior.Row(k.Name); pr >= 0 {
				settle(r, rowOf(prior, pr), true)
			}
		}
	}
	opts.OnRow = func(m *sweep.Matrix, r int) {
		err := journal.AppendRow(m, r)
		if err != nil {
			s.cfg.Logf("serve: %s: journal: %v", j.id, err)
		}
		settle(r, rowOf(m, r), err == nil && m.RowComplete(r))
	}

	runStart := time.Now()
	var rep *sweep.RunReport
	if s.cfg.Fleet != nil {
		rep, err = s.cfg.Fleet.RunSweep(ctx, SweepRequest{
			JobID: j.id, Kernels: j.res.kernels, Space: j.res.space,
			Engine: j.res.engine, Seed: j.spec.Seed, Noise: j.spec.Noise,
			Journal: journal, Trace: j.trace,
			OnRow: func(m *sweep.Matrix, r int) { settle(r, rowOf(m, r), m.RowComplete(r)) },
		})
	} else {
		_, rep, err = sweep.Resume(ctx, j.res.kernels, j.res.space, opts, journal.Prior())
	}
	summary := ""
	if rep != nil {
		summary = rep.Summary()
	}

	// Terminal decision. Order matters: a user cancel and the root
	// (shutdown) cancel both surface as context.Canceled, so the job's
	// own flag discriminates them; a deadline surfaces as
	// DeadlineExceeded on the job context specifically.
	switch {
	case err == nil:
		s.finish(j, StateComplete, "", summary)
		s.cfg.Logf("serve: %s complete: %s", j.id, summary)
	case userCanceledJob(j):
		s.finish(j, StateCanceled, "canceled by client", summary)
		s.cfg.Logf("serve: %s canceled by client", j.id)
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		s.finish(j, StateCanceled, "deadline exceeded", summary)
		s.cfg.Logf("serve: %s hit its deadline", j.id)
	default:
		// Shutdown interrupted the job: write nothing terminal. Its
		// journal keeps every completed row; the next start re-enqueues
		// it and Resume recomputes only the holes.
		j.mu.Lock()
		j.state = StateQueued
		j.unjournaled = nil
		j.cancel = nil
		j.mu.Unlock()
		s.cfg.Logf("serve: %s interrupted by shutdown (%s); will resume", j.id, summary)
	}

	// The job span closes with whatever the run decided; an interrupted
	// job emits a span per attempt, all under the same trace ID, so a
	// stitched view shows the resume chain.
	j.mu.Lock()
	state, rows := j.state, j.rowsDone
	j.mu.Unlock()
	s.cfg.Sink.Emit("job", "serve", 0, j.trace, j.parent, runStart, time.Since(runStart),
		obs.KS("job", j.id), obs.KS("client", j.client), obs.KS("state", string(state)), obs.KN("rows_done", float64(rows)))
}

// rowOf is row r of m, by value.
func rowOf(m *sweep.Matrix, r int) sweep.Row {
	return sweep.Row{Throughput: m.Throughput[r], TimeNS: m.TimeNS[r], Bound: m.Bound[r], Status: m.Status[r]}
}

func userCanceledJob(j *job) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.userCanceled
}

// Drain stops the service gracefully: admission flips to shedding
// (and /readyz to 503), idle runners exit, in-flight jobs get
// DrainGrace to finish, then their contexts are canceled and the
// journaled rows carry the rest across the restart. ctx bounds the
// whole wait.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if s.cfg.DrainGrace > 0 {
		t := time.NewTimer(s.cfg.DrainGrace)
		defer t.Stop()
		select {
		case <-done:
			s.rootCancel()
			return nil
		case <-t.C:
		case <-ctx.Done():
		}
	}
	s.rootCancel()
	select {
	case <-done:
		return ctx.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}
