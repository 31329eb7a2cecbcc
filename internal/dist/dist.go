// Package dist shards a sweep's kernel axis across a fleet: a
// coordinator leases kernel rows to workers over HTTP, workers run
// each row through the ordinary sweep executor and ship its planes
// back, and the coordinator appends each accepted row to the job's
// journal — the fleet's only row record, byte-identical to a
// single-node run's once rendered in kernel order.
//
// The protocol is built from the row up on the repo's crash-only
// primitives. A kernel row is already the unit of idempotent,
// journaled recovery (journal v2 appends whole rows, fsynced, and a
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
//     same discipline as journal v2) before the lease response is
//     sent, and a completed row is appended to the coordinator's
//     matrix journal before the complete is acknowledged. A
//     coordinator crash therefore resumes without double-granting a
//     completed row: done-ness is recovered from the journal, epochs
//     from the ledger, and recovered leases get a conservative fresh
//     TTL so a live worker's renewals still land.
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
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/sweep"
)

// Lease is a coordinator's grant of one kernel row to one worker.
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

// renewRequest extends a held lease.
type renewRequest struct {
	Job    string `json:"job"`
	Row    int    `json:"row"`
	Epoch  uint64 `json:"epoch"`
	Term   uint64 `json:"term,omitempty"`
	Worker string `json:"worker"`
}

// renewResponse acknowledges a renewal: the lease lives a fresh TTL
// from the coordinator's clock.
type renewResponse struct {
	// Done reports the row completed under this epoch already — the
	// worker's own complete, acked or not, landed. Stop renewing.
	Done bool `json:"done,omitempty"`
}

// completeRequest reports a row's terminal state. OK rows carry the
// row's measurement planes in the packed wire form (see packPlanes); a
// failed row carries none and just releases the lease for re-issue.
type completeRequest struct {
	Job    string `json:"job"`
	Row    int    `json:"row"`
	Epoch  uint64 `json:"epoch"`
	Term   uint64 `json:"term,omitempty"`
	Worker string `json:"worker"`
	OK     bool   `json:"ok"`
	Planes []byte `json:"planes,omitempty"`
	// Digest attests the row: sweep.RecordDigest over the journal
	// record the worker rendered from these planes and journaled. The
	// coordinator renders the received planes itself and rejects any
	// OK complete whose record hashes differently (payload damaged in
	// flight, or a worker attesting bytes it did not send). Required on
	// every OK complete.
	Digest string `json:"digest,omitempty"`
}

// packPlanes renders one row's measurement planes in the packed wire
// form: every throughput, then every time, as little-endian float64
// bits, then one byte per bound — 17 bytes per configuration. The
// planes cross each process boundary as these exact bits, so no
// process parses text to learn a row, and each renders the row's
// journal record exactly once.
func packPlanes(tput, timeNS []float64, bound []gcn.Bound) []byte {
	n := len(tput)
	b := make([]byte, 17*n)
	for c := 0; c < n; c++ {
		binary.LittleEndian.PutUint64(b[8*c:], math.Float64bits(tput[c]))
		binary.LittleEndian.PutUint64(b[8*(n+c):], math.Float64bits(timeNS[c]))
		b[16*n+c] = byte(bound[c])
	}
	return b
}

// planes is one row's measurement planes, unpacked from the wire.
type planes struct {
	tput, timeNS []float64
	bound        []gcn.Bound
}

// unpackPlanes decodes packed planes for an nCfg-configuration space
// and applies journal-grade hygiene before they can reach a matrix or
// a journal: the exact length, every measurement a positive finite
// number, every bound a known one — checked cell by cell in that
// order, so the first offending cell names the error.
func unpackPlanes(nCfg int, b []byte) (planes, error) {
	if len(b) != 17*nCfg {
		return planes{}, errors.New("wrong plane length")
	}
	p := planes{tput: make([]float64, nCfg), timeNS: make([]float64, nCfg), bound: make([]gcn.Bound, nCfg)}
	for c := 0; c < nCfg; c++ {
		tput := math.Float64frombits(binary.LittleEndian.Uint64(b[8*c:]))
		timeNS := math.Float64frombits(binary.LittleEndian.Uint64(b[8*(nCfg+c):]))
		bound := gcn.Bound(b[16*nCfg+c])
		if !(tput > 0) || math.IsInf(tput, 0) {
			return planes{}, errors.New("out-of-range throughput")
		}
		if !(timeNS > 0) || math.IsInf(timeNS, 0) {
			return planes{}, errors.New("out-of-range time")
		}
		if bound < gcn.BoundCompute || bound > gcn.BoundLaunch {
			return planes{}, errors.New("unknown bound")
		}
		p.tput[c], p.timeNS[c], p.bound[c] = tput, timeNS, bound
	}
	return p, nil
}

// completeResponse acknowledges a complete.
type completeResponse struct {
	// Duplicate reports the row was already done when this complete
	// arrived — the idempotent outcome of a retried complete whose
	// first delivery's response was lost.
	Duplicate bool `json:"duplicate,omitempty"`
	// Requeued reports a not-OK complete released the row for
	// re-lease.
	Requeued bool `json:"requeued,omitempty"`
	// PendingVerify reports the row is in the re-verification sample
	// and this complete was recorded as a vote: the worker's part is
	// done, but the row stays open until an independent worker
	// produces a matching digest.
	PendingVerify bool `json:"pending_verify,omitempty"`
	// Verified reports this complete settled a re-verified row: two
	// independent workers agreed on the digest.
	Verified bool `json:"verified,omitempty"`
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
// matrix: every cell was measured exactly once from the caller's view
// (worker-side retries are the workers' business). A stalled cell,
// decoded from an earlier version's journal, was never measured and
// counts as canceled: Resume recomputes its row.
func reportFor(m *sweep.Matrix) *sweep.RunReport {
	rep := &sweep.RunReport{
		Kernels: len(m.Kernels),
		Configs: m.Space.Size(),
		Cells:   len(m.Kernels) * m.Space.Size(),
	}
	for r := range m.Kernels {
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
