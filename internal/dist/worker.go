package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"gpuscale/internal/fault"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/obs"
	"gpuscale/internal/sweep"
)

// WorkerOptions configures one fleet worker.
type WorkerOptions struct {
	// Name identifies the worker in leases, ledger records and traces.
	Name string
	// Peers lists the base URLs (http://host:port) of every coordinator
	// this worker may talk to — the primary plus any warm standbys.
	// The worker sticks to one until it errors (transport failure, 503
	// not-primary, 409 deposed), then rotates to the next: after a
	// failover the fleet re-joins the promoted standby without operator
	// action, and in-flight leases within TTL complete there. Required.
	Peers []string
	// Client is the HTTP client; nil uses a default with a sane
	// timeout. Chaos tests hand in a fault.Injector-wrapped transport.
	Client *http.Client
	// SweepWorkers is the per-row parallelism; <= 0 lets sweep decide.
	SweepWorkers int
	// Retries/Backoff/SimTimeout pass through to the row sweep.
	Retries    int
	Backoff    time.Duration
	SimTimeout time.Duration
	// IdleSleep is the pause after "no work available"; defaults to
	// 50ms.
	IdleSleep time.Duration
	// Metrics receives worker-side counters, the renewal latency
	// histogram and the row sweeps' telemetry; nil keeps them in a
	// private registry.
	Metrics *obs.Registry
	// Sink, when non-nil, receives lease transitions, per-row and
	// per-renewal spans and the row sweeps' events, for the process's
	// trace and flight recorder.
	Sink *obs.Sink
	// MetricsURL, when set, is advertised on every lease acquire so the
	// coordinator can federate this worker's /metrics.
	MetricsURL string
	// Fault is the chaos seam: CorruptRowRate makes this worker lie
	// (tamper a computed row before rendering and attesting it, so its
	// wire payload and digest are consistently wrong), StaleVersion
	// makes it present that protocol version on acquire. Zero value
	// injects nothing.
	Fault fault.Injector
}

// maxBackoff caps the acquire-error backoff window. Errors back off
// exponentially from IdleSleep with full jitter (a uniform draw over
// the window), so a whole fleet reconnecting after a failover spreads
// its retries instead of thundering-herding the new primary.
const maxBackoff = 2 * time.Second

// ErrVersionFenced reports the coordinator refused this worker's
// version/fingerprint handshake. Permanent for this binary pair:
// retrying the same handshake cannot succeed, so Run exits with it.
var ErrVersionFenced = errors.New("dist: worker fenced: version/fingerprint mismatch")

// ErrQuarantined reports the coordinator quarantined this worker
// after proven digest mismatches. Permanent: every future call is
// rejected, so Run exits with it.
var ErrQuarantined = errors.New("dist: worker quarantined by coordinator")

// Worker runs the lease-acquire / sweep / complete loop against one
// coordinator. It keeps no row state: a row is a pure function of its
// lease (kernel, configuration space and seed), so a re-leased row is
// recomputed, and a finished row lives only in its job's journal on
// the coordinator.
type Worker struct {
	o      WorkerOptions
	client *http.Client
	// peer indexes o.Peers: the coordinator currently being used.
	// Rotated (atomically — the renew loop and the complete retries run
	// on their own goroutines) whenever that coordinator errors.
	peer atomic.Int32
	// maxTerm is the highest coordinator term seen on any lease; sent
	// on every acquire, so worker traffic itself deposes a partitioned
	// old primary. Only the Run goroutine touches it.
	maxTerm uint64
	// rng drives the full-jitter backoff; only the Run goroutine uses
	// it.
	rng *rand.Rand

	// reg holds the instruments: Options.Metrics, or a private registry.
	reg          *obs.Registry
	mRows, mLost *obs.Counter
	hRenew       *obs.Histogram
}

// NewWorker validates options and prepares a worker.
func NewWorker(o WorkerOptions) (*Worker, error) {
	if o.Name == "" {
		return nil, fmt.Errorf("dist: worker needs a name")
	}
	if len(o.Peers) == 0 {
		return nil, fmt.Errorf("dist: worker needs a coordinator peer list")
	}
	if o.IdleSleep <= 0 {
		o.IdleSleep = 50 * time.Millisecond
	}
	w := &Worker{o: o, client: o.Client}
	// Seed from the worker name so chaos runs replay; distinct names
	// give distinct jitter streams, which is the whole point.
	h := fnv.New64a()
	io.WriteString(h, o.Name)
	w.rng = rand.New(rand.NewSource(int64(h.Sum64())))
	if w.client == nil {
		w.client = &http.Client{Timeout: 30 * time.Second}
	}
	w.reg = o.Metrics
	if w.reg == nil {
		w.reg = obs.NewRegistry()
	}
	w.mRows = w.reg.Counter("dist_worker_rows_completed_total", "Rows this worker completed and had accepted.")
	w.mLost = w.reg.Counter("dist_worker_leases_lost_total", "Leases this worker lost to fencing (stolen mid-row).")
	w.hRenew = w.reg.Histogram("dist_worker_renew_seconds", "Lease renewal round-trip latency.",
		[]float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1})
	return w, nil
}

// Run loops until ctx ends: acquire a lease, execute the row, report
// it. Transport errors — including injected network faults — are
// absorbed with a short pause; the protocol's idempotency does the
// rest. Two rejections are permanent and end the loop instead:
// ErrVersionFenced (this binary cannot mix rows with that
// coordinator) and ErrQuarantined (the coordinator proved this worker
// wrong and fenced it) — retrying either would just hammer a 409
// forever.
func (w *Worker) Run(ctx context.Context) error {
	failures := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		lease, err := w.acquire(ctx)
		if errors.Is(err, ErrVersionFenced) || errors.Is(err, ErrQuarantined) {
			return err
		}
		if err != nil {
			// The coordinator we were on errored (down, deposed, or a
			// standby that isn't primary): rotate to the next peer and
			// back off with full jitter so a reconnecting fleet doesn't
			// thundering-herd the new primary.
			w.rotate()
			failures++
			if !sleepCtx(ctx, backoffDelay(w.o.IdleSleep, maxBackoff, failures-1, w.rng.Float64())) {
				return nil
			}
			continue
		}
		failures = 0
		if lease == nil {
			if !sleepCtx(ctx, w.o.IdleSleep) {
				return nil
			}
			continue
		}
		w.runLease(ctx, lease)
	}
}

// backoffDelay is the rejoin schedule: a uniform draw (roll in [0,1))
// over an exponentially growing window — base·2^attempt, capped at
// max. Full jitter rather than jittered-exponential: the delays of N
// workers retrying the same failed primary spread over the whole
// window, which is what flattens the reconnect spike after a
// failover.
func backoffDelay(base, max time.Duration, attempt int, roll float64) time.Duration {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max < base {
		max = base
	}
	window := base
	for i := 0; i < attempt && window < max; i++ {
		window *= 2
	}
	if window > max {
		window = max
	}
	d := time.Duration(roll * float64(window))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// rotate moves to the next peer in the list.
func (w *Worker) rotate() {
	if len(w.o.Peers) > 1 {
		w.peer.Add(1)
	}
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// acquire asks the coordinator for work, presenting the version
// handshake (protocol + engine fingerprint). nil lease means none
// available.
func (w *Worker) acquire(ctx context.Context) (*Lease, error) {
	proto := ProtoVersion
	if w.o.Fault.StaleVersion != "" {
		proto = w.o.Fault.StaleVersion
	}
	var lease Lease
	status, code, err := w.post(ctx, "/v1/dist/lease",
		acquireRequest{Worker: w.o.Name, MetricsURL: w.o.MetricsURL,
			Proto: proto, Fingerprint: EngineFingerprint(), Term: w.maxTerm}, &lease)
	if err != nil {
		return nil, err
	}
	switch {
	case status == http.StatusNoContent:
		return nil, nil
	case status == http.StatusConflict && code == "version-mismatch":
		return nil, fmt.Errorf("%w (worker %s)", ErrVersionFenced, w.o.Name)
	case status == http.StatusConflict && code == "quarantined":
		return nil, fmt.Errorf("%w (worker %s)", ErrQuarantined, w.o.Name)
	case status != http.StatusOK:
		// Covers a warm standby's 503 "not-primary" and a deposed
		// coordinator's 409 "deposed" alike: not permanent for this
		// worker, just wrong coordinator — the caller rotates.
		return nil, fmt.Errorf("dist: lease acquire: status %d (%s)", status, code)
	}
	if lease.Term > w.maxTerm {
		w.maxTerm = lease.Term
	}
	return &lease, nil
}

// runLease executes one leased row end to end: compute, renew in the
// background, complete with fencing-aware retries.
func (w *Worker) runLease(ctx context.Context, lease *Lease) {
	start := time.Now()
	rowCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The lease span arrives over the wire; the row span is its child,
	// so the coordinator's grant and this worker's execution stitch
	// into one trace even though they live in different processes.
	leaseSC, _ := obs.ParseTraceparent(lease.Traceparent)
	var rowSC obs.SpanContext
	if leaseSC.Valid() {
		rowSC = leaseSC.Child()
	}
	w.emit("lease.acquired", leaseSC, time.Now(), 0, lease)

	// Background renewal at a third of the TTL. A fenced renewal means
	// the lease was stolen: abandon the row — the thief owns it now.
	ttl := time.Duration(lease.TTLMillis) * time.Millisecond
	renewDone := make(chan struct{})
	go func() {
		defer close(renewDone)
		w.renewLoop(rowCtx, lease, leaseSC, ttl/3, cancel)
	}()
	defer func() { cancel(); <-renewDone }()

	m, r, rec, err := w.executeRow(rowCtx, lease, rowSC)
	if err != nil {
		// Row incomplete (canceled, fenced, or engine trouble past the
		// retry budget): tell the coordinator so the row re-leases
		// immediately instead of waiting out the TTL. Best-effort — if
		// this is lost, expiry re-leases it anyway.
		req := completeRequest{Job: lease.Job, Row: lease.Row, Epoch: lease.Epoch,
			Term: lease.Term, Worker: w.o.Name, OK: false}
		var resp completeResponse
		w.post(ctx, "/v1/dist/complete", req, &resp) //nolint:errcheck // best-effort release
		w.emit("lease.abandoned", leaseSC, time.Now(), 0, lease, obs.KS("err", err.Error()))
		return
	}

	// Attest the row: the digest hashes exactly the record this worker
	// rendered from the planes it is now shipping, so the coordinator
	// can hold these planes to this claim.
	req := completeRequest{Job: lease.Job, Row: lease.Row, Epoch: lease.Epoch,
		Term: lease.Term, Worker: w.o.Name, OK: true,
		Planes: packPlanes(m.Throughput[r], m.TimeNS[r], m.Bound[r]), Digest: sweep.RecordDigest(rec)}
	accepted := w.completeWithRetry(ctx, req)
	if accepted {
		w.mRows.Inc()
	}
	w.o.Sink.Emit("row", "dist", 0, rowSC, leaseSC.SpanID, start, time.Since(start),
		obs.KS("job", lease.Job), obs.KN("row", float64(lease.Row)), obs.KN("epoch", float64(lease.Epoch)),
		obs.KS("worker", w.o.Name), obs.KB("accepted", accepted))
}

// emit records a lease event under the lease's span: the lease's
// job, row, epoch and this worker, then extra.
func (w *Worker) emit(name string, leaseSC obs.SpanContext, start time.Time, d time.Duration, lease *Lease, extra ...obs.KV) {
	kvs := append([]obs.KV{obs.KS("job", lease.Job), obs.KN("row", float64(lease.Row)),
		obs.KN("epoch", float64(lease.Epoch)), obs.KS("worker", w.o.Name)}, extra...)
	w.o.Sink.Emit(name, "dist", 0, obs.SpanContext{TraceID: leaseSC.TraceID}, leaseSC.SpanID, start, d, kvs...)
}

// executeRow computes the leased row and renders its journal record
// once, for the attested digest. rowSC, when valid, joins the row
// sweep's events to the job's distributed trace.
func (w *Worker) executeRow(ctx context.Context, lease *Lease, rowSC obs.SpanContext) (*sweep.Matrix, int, sweep.RowRecord, error) {
	var rec sweep.RowRecord
	k, err := lease.DecodeKernel()
	if err != nil {
		return nil, 0, rec, err
	}
	space, err := hw.NewSpace(lease.Space.CUCounts, lease.Space.CoreClocksMHz, lease.Space.MemClocksMHz)
	if err != nil {
		return nil, 0, rec, err
	}
	engine, err := sweep.ParseEngine(lease.Engine)
	if err != nil {
		return nil, 0, rec, err
	}
	opts := sweep.Options{
		Workers:     w.o.SweepWorkers,
		Engine:      engine,
		NoiseStdDev: lease.NoiseStdDev,
		// The coordinator pre-offset the seed by the global row index;
		// our local row 0 therefore reproduces the single-node noise
		// stream for this row exactly.
		Seed:       lease.Seed,
		Retries:    w.o.Retries,
		Backoff:    w.o.Backoff,
		SimTimeout: w.o.SimTimeout,
	}
	tel := sweep.NewTelemetry(w.reg, w.o.Sink)
	tel.SetSpanContext(rowSC)
	opts.Observer = tel
	m, _, err := sweep.RunContext(ctx, []*kernel.Kernel{k}, space, opts)
	if err != nil {
		return nil, 0, rec, err
	}
	r := m.Row(k.Name)
	if r < 0 || !m.RowComplete(r) {
		return nil, 0, rec, fmt.Errorf("dist: row %s incomplete after sweep", k.Name)
	}
	// The byzantine seam: a lying worker corrupts the row BEFORE
	// rendering it, so its wire payload and its digest are consistent —
	// the lie is only catchable by independent re-execution, which is
	// exactly what sampled re-verification does.
	if hit, sub := w.o.Fault.RowTamper(lease.Job+"/"+m.Kernels[r], 0); hit {
		tamperRow(m, r, sub)
	}
	if rec, err = sweep.EncodeRow(m, r); err != nil {
		return nil, 0, rec, err
	}
	return m, r, rec, nil
}

// tamperRow is the injected lie: one cell's throughput nudged by one
// part in 1024 — small enough to stay positive, finite and
// plausible (it sails through unpackPlanes), large enough to change
// the float64 bit pattern and therefore the digest. Which cell is
// chosen by the injector's sub-roll, deterministically.
func tamperRow(m *sweep.Matrix, r int, sub uint64) {
	c := int(sub % uint64(m.Space.Size()))
	m.Throughput[r][c] *= 1 + 1.0/1024
}

// renewLoop renews the lease every interval until the row context
// ends; a fenced (409) renewal cancels the row.
func (w *Worker) renewLoop(ctx context.Context, lease *Lease, leaseSC obs.SpanContext, every time.Duration, cancel context.CancelFunc) {
	if every <= 0 {
		every = time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		start := time.Now()
		var resp renewResponse
		status, code, err := w.post(ctx, "/v1/dist/renew",
			renewRequest{Job: lease.Job, Row: lease.Row, Epoch: lease.Epoch,
				Term: lease.Term, Worker: w.o.Name}, &resp)
		d := time.Since(start)
		if err == nil {
			w.hRenew.Observe(d.Seconds())
			w.emit("renew", leaseSC, start, d, lease, obs.KN("status", float64(status)))
		}
		switch {
		case err != nil:
			// Dropped/delayed renewals are exactly what the TTL slack
			// absorbs; rotate in case the coordinator is gone and keep
			// trying on the next tick.
			w.rotate()
		case status == http.StatusConflict && code == "deposed",
			status == http.StatusServiceUnavailable:
			// The coordinator we renewed against is deposed (or is a
			// standby): the lease itself may still be live on the new
			// primary — it recovered our grant, term and epoch from the
			// replicated ledger — so rotate and renew there instead of
			// abandoning the row.
			w.rotate()
		case status == http.StatusConflict:
			w.mLost.Inc()
			w.emit("lease.lost", leaseSC, time.Now(), 0, lease)
			cancel()
			return
		case resp.Done:
			return
		}
	}
}

// completeWithRetry reports an OK row until the coordinator acks it
// or fences it. Dropped responses are retried — the server-side
// duplicate check makes that safe. Every 4xx is a give-up: a 409
// means the lease was stolen (or this worker was quarantined) and a
// 400 means the attestation was rejected — resending the identical
// payload cannot change either verdict.
func (w *Worker) completeWithRetry(ctx context.Context, req completeRequest) bool {
	backoff := 5 * time.Millisecond
	for {
		var resp completeResponse
		status, code, err := w.post(ctx, "/v1/dist/complete", req, &resp)
		switch {
		case err == nil && status == http.StatusOK:
			return true
		case err == nil && status == http.StatusConflict && code == "deposed":
			// The coordinator lost its term mid-row; the promoted one
			// recovered our grant from the replicated ledger and will
			// accept this complete. Rotate and retry.
			w.rotate()
		case err == nil && status == http.StatusConflict:
			w.mLost.Inc()
			return false
		case err == nil && (status == http.StatusNotFound || status == http.StatusBadRequest):
			return false
		case err != nil:
			w.rotate()
		}
		if !sleepCtx(ctx, backoff) {
			return false
		}
		if backoff < 100*time.Millisecond {
			backoff *= 2
		}
	}
}

// post sends one JSON request and decodes a JSON response into out on
// success; on an error status it decodes the errorBody envelope
// instead and returns its machine code ("stale-epoch",
// "version-mismatch", "quarantined", "bad-attestation"), best-effort.
// Injected network faults surface here as transport errors.
func (w *Worker) post(ctx context.Context, path string, body, out any) (int, string, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, "", err
	}
	base := w.o.Peers[int(uint32(w.peer.Load()))%len(w.o.Peers)]
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(b))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		if errors.Is(err, fault.ErrDroppedResponse) {
			return 0, "", fault.ErrDroppedResponse
		}
		return 0, "", err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode >= http.StatusBadRequest {
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb) //nolint:errcheck // code is advisory
		return resp.StatusCode, eb.Code, nil
	}
	if out != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && resp.StatusCode == http.StatusOK {
			return resp.StatusCode, "", fmt.Errorf("dist: decoding %s response: %w", path, err)
		}
	}
	return resp.StatusCode, "", nil
}
