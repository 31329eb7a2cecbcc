// Package dist shards a sweep's kernel axis across a fleet: a
// coordinator leases kernel rows to workers over HTTP, workers run
// each row through the ordinary sweep executor and ship its planes
// back, and the coordinator appends each accepted row to the job's
// journal — the fleet's only row record, byte-identical to a
// single-node run's once rendered in kernel order.
//
// The protocol is built from the row up on the repo's crash-only
// primitives. A kernel row is already the unit of idempotent,
// journaled recovery (the journal appends whole rows, fsynced, and a
// resume recomputes exactly the missing ones), so it is also the unit
// of distribution. Three properties carry the fleet:
//
//   - Monotonic lease epochs. Every grant of a row — first lease or
//     steal after expiry — bumps the row's epoch. A complete call is
//     accepted only when its epoch matches the row's current epoch, so
//     a worker whose lease was stolen cannot race its replacement: the
//     stale epoch is fenced with 409, never merged.
//
//   - Fsync-before-ack. A grant is recorded in the coordinator's
//     lease ledger (CRC-framed, fsynced, torn-tail-salvaging — the
//     same discipline as the journal) before the lease response is
//     sent, and a completed row is appended to the job's journal
//     before the complete is acknowledged. Rows are leased in batches,
//     and a batch's grants, and its accepted rows, each land in one
//     append per file, so fsyncs follow batches while every record
//     stays per row. A coordinator crash therefore resumes without
//     double-granting a completed row: done-ness is recovered from the
//     journal, epochs from the ledger, and recovered leases get a
//     conservative fresh TTL so a live worker's renewals still land.
//
//   - Seeded determinism. The coordinator hands each worker
//     Seed = job.Seed + row, which is exactly the per-row noise seed
//     a single-node sweep derives, so any two honest executions of a
//     row — original and thief, before and after a crash — produce
//     bit-identical planes. Exactly-once completion is then checkable
//     after the fact: the job's journal must equal the single-node
//     journal byte for byte.
//
// Workers are stateless: a row is a pure function of its lease, so a
// worker computes, attests and forgets, and writes no journal. A
// re-leased row is recomputed, and a worker kill mid-row just lets the
// lease expire and the row get re-leased.
package dist

import (
	"bytes"
	"encoding/json"
	"fmt"

	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/sweep"
)

// Lease is a coordinator's grant of one kernel row to one worker. An
// acquire grants a batch of them (see acquireResponse), and every
// rule of the protocol — epochs, terms, attestation, re-verification,
// the ledger's records — still applies to each row on its own.
type Lease struct {
	// Job and Row name the work; Epoch is the fencing token every
	// renew and complete must echo.
	Job   string `json:"job"`
	Row   int    `json:"row"`
	Epoch uint64 `json:"epoch"`
	// Term is the coordinator term the lease was granted under — the
	// second fencing factor. Epochs fence stale workers within one
	// coordinator's reign; terms fence a deposed coordinator's grants
	// after a standby promoted. Renews and completes echo both.
	Term uint64 `json:"term,omitempty"`
	// Kernel is the row's kernel as a one-element kernel JSON array
	// (the kernel.WriteAll wire form).
	Kernel json.RawMessage `json:"kernel"`
	// Space is the job's configuration space; the worker validates it
	// with hw.NewSpace before sweeping.
	Space hw.Space `json:"space"`
	// Seed is the row's noise seed — already offset by the row index,
	// so the worker uses it verbatim and its local row 0 reproduces
	// the global row's noise stream.
	Seed        int64   `json:"seed"`
	NoiseStdDev float64 `json:"noise_stddev,omitempty"`
	Engine      string  `json:"engine"`
	// TTLMillis is how long the lease lives without a renewal; the
	// worker renews at a third of it.
	TTLMillis int64 `json:"ttl_ms"`
	// Traceparent carries the lease span's W3C trace context: the
	// coordinator mints a span per grant (a child of the job's span)
	// and the worker parents its row span under it, which is what
	// stitches one job submission into a single cross-process trace.
	Traceparent string `json:"traceparent,omitempty"`
}

// DecodeKernel rebuilds the leased kernel.
func (l *Lease) DecodeKernel() (*kernel.Kernel, error) {
	ks, err := kernel.ReadAll(bytes.NewReader(l.Kernel))
	if err != nil {
		return nil, fmt.Errorf("dist: decoding leased kernel: %w", err)
	}
	if len(ks) != 1 {
		return nil, fmt.Errorf("dist: lease carries %d kernels, want 1", len(ks))
	}
	return ks[0], nil
}

// encodeKernel renders one kernel in the lease wire form.
func encodeKernel(k *kernel.Kernel) (json.RawMessage, error) {
	var buf bytes.Buffer
	if err := kernel.WriteAll(&buf, []*kernel.Kernel{k}); err != nil {
		return nil, fmt.Errorf("dist: encoding kernel: %w", err)
	}
	return buf.Bytes(), nil
}

// acquireRequest asks for the next available row.
type acquireRequest struct {
	Worker string `json:"worker"`
	// MetricsURL, when set, is where this worker serves its Prometheus
	// exposition; the coordinator registers it with the metrics
	// federation, so joining the fleet is joining /metrics/fleet.
	MetricsURL string `json:"metrics_url,omitempty"`
	// Proto and Fingerprint are the version handshake: the worker's
	// protocol version (ProtoVersion) and engine fingerprint
	// (EngineFingerprint). Either one differing from the
	// coordinator's — including absent, as a pre-attestation binary
	// would send — fences the acquire with a typed 409 before any row
	// is granted.
	Proto       string `json:"proto,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Term is the highest coordinator term this worker has observed on
	// any lease. A coordinator that receives an acquire carrying a term
	// above its own has been deposed and just didn't know it yet — the
	// worker traffic itself carries the fencing information, so a
	// partitioned old primary steps down as soon as any re-joined
	// worker talks to it.
	Term uint64 `json:"term,omitempty"`
}

// acquireResponse grants a batch of rows from one job, each with its
// own epoch, term and lease span.
type acquireResponse struct {
	Leases []Lease `json:"leases"`
}

// rowRef names one leased row of the request's job and echoes its
// fencing tokens.
type rowRef struct {
	Row   int    `json:"row"`
	Epoch uint64 `json:"epoch"`
	Term  uint64 `json:"term,omitempty"`
}

// ref is the lease's row reference.
func (l *Lease) ref() rowRef { return rowRef{Row: l.Row, Epoch: l.Epoch, Term: l.Term} }

// renewRequest extends a batch of held leases. A batch holds one job's
// rows, so the job is named once.
type renewRequest struct {
	Worker string   `json:"worker"`
	Job    string   `json:"job"`
	Rows   []rowRef `json:"rows"`
}

// renewResponse answers a renewal row by row, in request order: each
// row's lease lives a fresh TTL from the coordinator's clock unless the
// row is refused.
type renewResponse struct {
	Rows []renewResult `json:"rows"`
}

// renewResult is one row's renewal.
type renewResult struct {
	// Done reports the row completed already — under this epoch or, after
	// a steal, another one. Stop renewing it.
	Done bool `json:"done,omitempty"`
	refusal
}

// completeRequest reports the terminal states of a batch of one job's
// rows. OK rows carry the row's measurement planes packed, as its
// journal record holds them (sweep.RowRecord); a failed row carries
// none and just releases its lease for re-issue.
type completeRequest struct {
	Worker string        `json:"worker"`
	Job    string        `json:"job"`
	Rows   []rowComplete `json:"rows"`
}

// rowComplete is one row's terminal state in a complete.
type rowComplete struct {
	rowRef
	OK     bool   `json:"ok"`
	Planes []byte `json:"planes,omitempty"`
	// Digest attests the row: sweep.RecordDigest over the row's journal
	// record, the kernel's name and exactly these bytes. The coordinator
	// digests the received bytes itself and rejects any OK row whose
	// record hashes differently (payload damaged in flight, or a worker
	// attesting bytes it did not send). Required on every OK row.
	Digest string `json:"digest,omitempty"`
	// CostNS is how long the worker took to compute and encode the row.
	// It sizes the job's later batches and never affects a verdict.
	CostNS int64 `json:"cost_ns,omitempty"`
}

// completeResponse answers a complete row by row, in request order.
type completeResponse struct {
	Rows []rowResult `json:"rows"`
}

// rowResult is one row's verdict.
type rowResult struct {
	// Duplicate reports the row was already done when this complete
	// arrived — the idempotent outcome of a retried complete whose
	// first delivery's response was lost.
	Duplicate bool `json:"duplicate,omitempty"`
	// Requeued reports a not-OK row was released for re-lease.
	Requeued bool `json:"requeued,omitempty"`
	// PendingVerify reports the row is in the re-verification sample
	// and this complete was recorded as a vote: the worker's part is
	// done, but the row stays open until an independent worker
	// produces a matching digest.
	PendingVerify bool `json:"pending_verify,omitempty"`
	// Verified reports this complete settled a re-verified row: two
	// independent workers agreed on the digest.
	Verified bool `json:"verified,omitempty"`
	refusal
}

// refusal is a refused row's verdict: the status and machine code a
// call naming that row alone gets (see leaseErrorBody) — 409 for the
// epoch and term fences, 400 for a bad attestation, 404 for an
// unknown row, 500 for anything else. Zero when the row's verdict
// succeeded. err is the same verdict in process.
type refusal struct {
	Status int    `json:"status,omitempty"`
	Code   string `json:"code,omitempty"`
	Error  string `json:"error,omitempty"`
	err    error
}

// refuse records err as a row's refusal.
func refuse(err error) refusal {
	status, body := leaseErrorBody(err)
	return refusal{Status: status, Code: body.Code, Error: body.Error, err: err}
}

// JobStatus is the coordinator's view of one job's progress.
type JobStatus struct {
	Job    string `json:"job"`
	Rows   int    `json:"rows"`
	Done   int    `json:"done"`
	Leased int    `json:"leased"`
	// Verifying counts rows holding at least one re-verification vote
	// and waiting for an independent worker to agree.
	Verifying int  `json:"verifying,omitempty"`
	Complete  bool `json:"complete"`
}

// errorBody is the JSON error envelope, matching internal/serve. Code
// discriminates the 4xx family machine-side: "stale-epoch" (the
// fence), "stale-term" (the lease belongs to a deposed coordinator's
// reign), "version-mismatch" (the handshake), "quarantined" (the
// worker is fenced fleet-wide), "bad-attestation" (digest/payload
// disagreement), "deposed" (this coordinator lost its term — find the
// new primary), "not-primary" (a warm standby that has not promoted).
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// reportFor synthesizes a sweep report from a finished distributed
// matrix: every cell of a row reused from the job's journal is reused
// (Skipped), as Resume counts it, and every other cell was measured
// exactly once from the caller's view (worker-side retries are the
// workers' business). A stalled cell, decoded from an earlier
// version's journal, was never measured and counts as canceled: Resume
// recomputes its row.
func reportFor(m *sweep.Matrix, reused []bool) *sweep.RunReport {
	rep := &sweep.RunReport{
		Kernels: len(m.Kernels),
		Configs: m.Space.Size(),
		Cells:   len(m.Kernels) * m.Space.Size(),
	}
	for r := range m.Kernels {
		if r < len(reused) && reused[r] {
			rep.Skipped += m.Space.Size()
			continue
		}
		for c := 0; c < m.Space.Size(); c++ {
			switch m.Status[r][c] {
			case sweep.StatusOK:
				rep.OK++
			case sweep.StatusFailed:
				rep.Failed++
			case sweep.StatusQuarantined:
				rep.Quarantined++
			default:
				rep.Canceled++
			}
		}
	}
	rep.Attempts = rep.OK
	return rep
}
