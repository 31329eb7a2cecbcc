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
	"gpuscale/internal/gcn"
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
	// Fault is the chaos seam: the engine rates (ErrorRate, PanicRate,
	// LatencyRate with Latency, ...) fault this worker's row sweeps as
	// they fault a single-node sweep's, CorruptRowRate makes this worker
	// lie (tamper a computed row before encoding and attesting it, so
	// its wire payload and digest are consistently wrong), StaleVersion
	// makes it present that protocol version on acquire. Zero value
	// injects nothing.
	Fault fault.Injector
}

// minBackoff and maxBackoff bound the acquire-error backoff window.
// Errors back off exponentially from minBackoff with full jitter (a
// uniform draw over the window), so a whole fleet reconnecting after a
// failover spreads its retries instead of thundering-herding the new
// primary. An acquire that finds no work is not an error: the
// coordinator holds it until work appears or its long-poll ends, and
// the worker asks again at once.
const (
	minBackoff = 50 * time.Millisecond
	maxBackoff = 2 * time.Second
)

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
	// engines holds each engine's fault-wrapped row engine, so one
	// cell's fault attempts continue across every row of this worker —
	// a row the injector failed is not failed the same way again when
	// the worker is leased it anew. Only the Run goroutine uses it.
	engines map[sweep.Engine]gcn.RowEngine
	// space is the configuration space of the last lease executed,
	// validated once: hw.NewSpace builds every configuration to check
	// it, and a batch holds one job's rows, which all carry the job's
	// space. Only the Run goroutine uses it.
	space hw.Space

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
	if err := o.Fault.Validate(); err != nil {
		return nil, fmt.Errorf("dist: worker fault model: %w", err)
	}
	w := &Worker{o: o, client: o.Client, engines: map[sweep.Engine]gcn.RowEngine{}}
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
	if w.o.Fault.Active() {
		w.o.Fault.OnDecision = fault.Observe(w.reg, w.o.Sink)
	}
	return w, nil
}

// Run loops until ctx ends: acquire a lease batch, execute its rows,
// report them. Transport errors — including injected network faults — are
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
		leases, err := w.acquire(ctx)
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
			if !sleepCtx(ctx, backoffDelay(failures-1, w.rng.Float64())) {
				return nil
			}
			continue
		}
		failures = 0
		if len(leases) > 0 {
			w.runBatch(ctx, leases)
		}
	}
}

// backoffDelay is the rejoin schedule: a uniform draw (roll in [0,1))
// over an exponentially growing window — minBackoff·2^attempt, capped
// at maxBackoff. Full jitter rather than jittered-exponential: the
// delays of N workers retrying the same failed primary spread over the
// whole window, which is what flattens the reconnect spike after a
// failover.
func backoffDelay(attempt int, roll float64) time.Duration {
	window := minBackoff
	for i := 0; i < attempt && window < maxBackoff; i++ {
		window *= 2
	}
	if window > maxBackoff {
		window = maxBackoff
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
// handshake (protocol + engine fingerprint). No leases means none
// became available within the coordinator's long-poll.
func (w *Worker) acquire(ctx context.Context) ([]Lease, error) {
	proto := ProtoVersion
	if w.o.Fault.StaleVersion != "" {
		proto = w.o.Fault.StaleVersion
	}
	var resp acquireResponse
	status, code, err := w.postJSON(ctx, "/v1/dist/lease",
		acquireRequest{Worker: w.o.Name, MetricsURL: w.o.MetricsURL,
			Proto: proto, Fingerprint: EngineFingerprint(), Term: w.maxTerm}, &resp)
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
	for _, l := range resp.Leases {
		w.maxTerm = max(w.maxTerm, l.Term)
	}
	return resp.Leases, nil
}

// batchRow is one row of a lease batch as the worker runs it: the
// lease, its trace identity, the row's own context (canceled when its
// lease is lost mid-row), and what became of it.
type batchRow struct {
	lease          *Lease
	leaseSC, rowSC obs.SpanContext
	ctx            context.Context
	cancel         context.CancelFunc
	// gone marks a row the renew loop learned is no longer this
	// worker's to finish: fenced, or already done. Its complete would
	// be refused or a duplicate, so none is sent.
	gone  atomic.Bool
	start time.Time
	dur   time.Duration
}

// runBatch executes one lease batch end to end: renew the batch's live
// rows in the background, compute and encode its rows one at a time,
// then report them all in one complete with fencing-aware retries. A
// batch holds one job's rows. Each row's span covers only that row's
// compute and encoding; one span covers the complete call.
func (w *Worker) runBatch(ctx context.Context, leases []Lease) {
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	rows := make([]batchRow, len(leases))
	for i := range leases {
		r := &rows[i]
		r.lease = &leases[i]
		// The lease span arrives over the wire; the row span is its
		// child, so the coordinator's grant and this worker's execution
		// stitch into one trace even though they live in different
		// processes.
		r.leaseSC, _ = obs.ParseTraceparent(r.lease.Traceparent)
		if r.leaseSC.Valid() {
			r.rowSC = r.leaseSC.Child()
		}
		r.ctx, r.cancel = context.WithCancel(bctx)
		w.emit("lease.acquired", r.leaseSC, time.Now(), 0, r.lease)
	}

	// Background renewal at a third of the TTL. A fenced row is
	// abandoned — the thief owns it now.
	ttl := time.Duration(leases[0].TTLMillis) * time.Millisecond
	renewDone := make(chan struct{})
	go func() {
		defer close(renewDone)
		w.renewLoop(bctx, rows, ttl/3)
	}()
	defer func() { cancel(); <-renewDone }()

	req := completeRequest{Worker: w.o.Name, Job: leases[0].Job}
	var sent []*batchRow
	for i := range rows {
		r := &rows[i]
		if r.gone.Load() {
			continue
		}
		r.start = time.Now()
		rec, err := w.executeRow(r.ctx, r.lease, r.rowSC)
		r.dur = time.Since(r.start)
		r.cancel()
		if r.gone.Load() {
			continue
		}
		if err != nil {
			// Row incomplete (canceled, or engine trouble past the retry
			// budget): report it not-OK so the row re-leases at once
			// instead of waiting out the TTL.
			req.Rows = append(req.Rows, rowComplete{rowRef: r.lease.ref()})
			sent = append(sent, r)
			w.emit("lease.abandoned", r.leaseSC, time.Now(), 0, r.lease, obs.KS("err", err.Error()))
			continue
		}
		// Attest the row: the digest hashes exactly the record whose
		// planes this worker is now shipping, so the coordinator can hold
		// these planes to this claim.
		req.Rows = append(req.Rows, rowComplete{rowRef: r.lease.ref(), OK: true,
			Planes: rec.Packed(), Digest: sweep.RecordDigest(rec), CostNS: r.dur.Nanoseconds()})
		sent = append(sent, r)
	}
	if len(req.Rows) == 0 {
		return
	}
	start := time.Now()
	acks := w.completeWithRetry(ctx, req)
	end := time.Now()
	accepted := 0
	for k, r := range sent {
		if !req.Rows[k].OK {
			continue
		}
		if acks[k] {
			accepted++
			w.mRows.Inc()
		}
		w.o.Sink.Emit("row", "dist", 0, r.rowSC, r.leaseSC.SpanID, r.start, r.dur,
			obs.KS("job", r.lease.Job), obs.KN("row", float64(r.lease.Row)), obs.KN("epoch", float64(r.lease.Epoch)),
			obs.KS("worker", w.o.Name), obs.KB("accepted", acks[k]))
	}
	first := &rows[0]
	w.o.Sink.Emit("lease.complete", "dist", 0, first.leaseSC.Child(), first.leaseSC.SpanID, start, end.Sub(start),
		obs.KS("job", first.lease.Job), obs.KS("worker", w.o.Name),
		obs.KN("rows", float64(len(req.Rows))), obs.KN("accepted", float64(accepted)))
}

// emit records a lease event under the lease's span: the lease's
// job, row, epoch and this worker, then extra.
func (w *Worker) emit(name string, leaseSC obs.SpanContext, start time.Time, d time.Duration, lease *Lease, extra ...obs.KV) {
	kvs := append([]obs.KV{obs.KS("job", lease.Job), obs.KN("row", float64(lease.Row)),
		obs.KN("epoch", float64(lease.Epoch)), obs.KS("worker", w.o.Name)}, extra...)
	w.o.Sink.Emit(name, "dist", 0, obs.SpanContext{TraceID: leaseSC.TraceID}, leaseSC.SpanID, start, d, kvs...)
}

// executeRow computes the leased row and returns its journal record:
// the planes the worker ships and the bytes its digest attests. rowSC,
// when valid, joins the row sweep's events to the job's distributed
// trace.
func (w *Worker) executeRow(ctx context.Context, lease *Lease, rowSC obs.SpanContext) (sweep.RowRecord, error) {
	k, err := lease.DecodeKernel()
	if err != nil {
		return sweep.RowRecord{}, err
	}
	space, err := w.leaseSpace(lease)
	if err != nil {
		return sweep.RowRecord{}, err
	}
	engine, err := sweep.ParseEngine(lease.Engine)
	if err != nil {
		return sweep.RowRecord{}, err
	}
	opts := sweep.Options{
		Workers:     w.o.SweepWorkers,
		Engine:      engine,
		Row:         w.rowEngine(engine),
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
		return sweep.RowRecord{}, err
	}
	r := m.Row(k.Name)
	if r < 0 || !m.RowComplete(r) {
		return sweep.RowRecord{}, fmt.Errorf("dist: row %s incomplete after sweep", k.Name)
	}
	// The byzantine seam: a lying worker corrupts the row BEFORE
	// encoding it, so its wire payload and its digest are consistent —
	// the lie is only catchable by independent re-execution, which is
	// exactly what sampled re-verification does.
	if hit, sub := w.o.Fault.RowTamper(lease.Job+"/"+m.Kernels[r], 0); hit {
		tamperRow(m, r, sub)
	}
	return sweep.EncodeRow(m, r)
}

// leaseSpace returns the lease's configuration space, validated: the
// last lease's when it carries the same axes, else a new one.
func (w *Worker) leaseSpace(lease *Lease) (hw.Space, error) {
	if w.space.Size() > 0 && w.space.Equal(lease.Space) {
		return w.space, nil
	}
	space, err := hw.NewSpace(lease.Space.CUCounts, lease.Space.CoreClocksMHz, lease.Space.MemClocksMHz)
	if err != nil {
		return hw.Space{}, err
	}
	w.space = space
	return space, nil
}

// tamperRow is the injected lie: one cell's throughput nudged by one
// part in 1024 — small enough to stay positive, finite and plausible
// (it passes the record's hygiene checks), large enough to change the
// float64 bit pattern and therefore the digest. Which cell is
// chosen by the injector's sub-roll, deterministically.
func tamperRow(m *sweep.Matrix, r int, sub uint64) {
	c := int(sub % uint64(m.Space.Size()))
	m.Throughput[r][c] *= 1 + 1.0/1024
}

// rowEngine is the row engine a sweep of engine runs through: under
// an active fault model, this worker's one fault-wrapped engine for
// it; otherwise nil, the engine's own.
func (w *Worker) rowEngine(engine sweep.Engine) gcn.RowEngine {
	if !w.o.Fault.Active() {
		return nil
	}
	re, ok := w.engines[engine]
	if !ok {
		re = w.o.Fault.WrapRow(engine.Row())
		w.engines[engine] = re
	}
	return re
}

// renewLoop renews the batch's live rows, in one call, every interval
// until the batch context ends. A row the coordinator fences is lost:
// its computation is canceled and it is left out of the complete. A row
// already done is left alone.
func (w *Worker) renewLoop(ctx context.Context, rows []batchRow, every time.Duration) {
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
		req := renewRequest{Worker: w.o.Name, Job: rows[0].lease.Job}
		var live []*batchRow
		for i := range rows {
			if !rows[i].gone.Load() {
				live = append(live, &rows[i])
				req.Rows = append(req.Rows, rows[i].lease.ref())
			}
		}
		if len(live) == 0 {
			return
		}
		start := time.Now()
		var resp renewResponse
		status, code, err := w.postJSON(ctx, "/v1/dist/renew", req, &resp)
		d := time.Since(start)
		if err == nil {
			w.hRenew.Observe(d.Seconds())
			w.emit("renew", live[0].leaseSC, start, d, live[0].lease,
				obs.KN("status", float64(status)), obs.KN("rows", float64(len(live))))
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
			// standby): the leases themselves may still be live on the new
			// primary — it recovered our grants, terms and epochs from the
			// replicated ledger — so rotate and renew there instead of
			// abandoning the rows.
			w.rotate()
		case status == http.StatusConflict:
			// Quarantined: every row is lost.
			for _, r := range live {
				w.lose(r)
			}
			return
		case status == http.StatusOK && len(resp.Rows) == len(live):
			for k, r := range live {
				switch {
				case resp.Rows[k].Done:
					r.gone.Store(true)
				case resp.Rows[k].Status == http.StatusConflict:
					w.lose(r)
				}
			}
		}
	}
}

// lose abandons a row whose lease was fenced: the thief owns it now.
func (w *Worker) lose(r *batchRow) {
	r.gone.Store(true)
	r.cancel()
	w.mLost.Inc()
	w.emit("lease.lost", r.leaseSC, time.Now(), 0, r.lease)
}

// completeWithRetry reports a batch until the coordinator has given
// every row a verdict, and reports which rows it acked: accepted,
// duplicate, requeued or held as a vote. Dropped responses and rows
// refused with a 5xx are retried — the server-side duplicate check
// makes that safe. Every 4xx is a give-up for its row, or for the
// whole batch when the call itself is refused: a 409 means the lease
// was stolen (or this worker was quarantined) and a 400 means the
// attestation was rejected — resending the identical payload cannot
// change either verdict.
func (w *Worker) completeWithRetry(ctx context.Context, req completeRequest) []bool {
	acked := make([]bool, len(req.Rows))
	open := make([]int, len(req.Rows))
	for i := range open {
		open[i] = i
	}
	backoff := 5 * time.Millisecond
	for {
		call := completeRequest{Worker: req.Worker, Job: req.Job}
		for _, i := range open {
			call.Rows = append(call.Rows, req.Rows[i])
		}
		var resp completeResponse
		status, code, err := w.post(ctx, "/v1/dist/complete", "application/octet-stream", call.encode(), &resp)
		switch {
		case err == nil && status == http.StatusOK && len(resp.Rows) == len(open):
			var retry []int
			for k, i := range open {
				switch st := resp.Rows[k].Status; {
				case st == 0:
					acked[i] = true
				case st >= http.StatusInternalServerError:
					retry = append(retry, i)
				case st == http.StatusConflict:
					w.mLost.Inc()
				}
			}
			if open = retry; len(open) == 0 {
				return acked
			}
		case err == nil && status == http.StatusConflict && code == "deposed":
			// The coordinator lost its term mid-batch; the promoted one
			// recovered our grants from the replicated ledger and will
			// accept this complete. Rotate and retry.
			w.rotate()
		case err == nil && status == http.StatusConflict:
			w.mLost.Add(uint64(len(open)))
			return acked
		case err == nil && (status == http.StatusNotFound || status == http.StatusBadRequest):
			return acked
		case err != nil:
			w.rotate()
		}
		if !sleepCtx(ctx, backoff) {
			return acked
		}
		if backoff < 100*time.Millisecond {
			backoff *= 2
		}
	}
}

// postJSON posts body as JSON (post).
func (w *Worker) postJSON(ctx context.Context, path string, body, out any) (int, string, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, "", err
	}
	return w.post(ctx, path, "application/json", b, out)
}

// post sends one request body and decodes a JSON response into out on
// success; on an error status it decodes the errorBody envelope
// instead and returns its machine code ("stale-epoch",
// "version-mismatch", "quarantined", "bad-attestation"), best-effort.
// Injected network faults surface here as transport errors.
func (w *Worker) post(ctx context.Context, path, contentType string, body []byte, out any) (int, string, error) {
	base := w.o.Peers[int(uint32(w.peer.Load()))%len(w.o.Peers)]
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", contentType)
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
