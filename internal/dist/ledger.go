package dist

// The lease ledger: the coordinator's crash-only record of every
// grant and complete, in the same CRC-framed, fsync-before-ack,
// torn-tail-salvaging internal/durable log as sweep's journal:
//
//	gpuscale-lease v1\n
//	<crc32:8-hex> <len:decimal> <json-payload>\n
//	...
//
// A grant record is written and fsynced BEFORE the lease response
// leaves the coordinator, and a complete record before the complete
// ack, so recovery can always reconstruct an epoch assignment the
// fleet may have seen. Renewals are deliberately NOT persisted:
// recovery instead extends every open lease by a full fresh TTL from
// the recovery clock, which is always at or after the last renewal it
// could have acked — conservative, never premature.
//
// The ledger doubles as the audit trail for the protocol's "no two
// live epochs" invariant: grants for one row carry monotonically
// increasing epochs, and each grant's timestamp is at or after the
// previous epoch's recorded expiry (AuditLedger checks both).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"gpuscale/internal/durable"
	"gpuscale/internal/sweep"
)

// ledgerMagic is the version header.
const ledgerMagic = "gpuscale-lease v1\n"

// LedgerRecord is one persisted lease event.
type LedgerRecord struct {
	// Kind is the event: "grant", "complete", or — the integrity
	// plane — "attest" (a re-verification vote), "strike" (a worker's
	// digest lost a vote), "quarantine" (the strike's worker is fenced
	// fleet-wide; it follows every strike), "invalidate" (a quarantined
	// worker's unverified complete was retracted and the row reopened)
	// — or "term", the HA plane: a coordinator (named in Worker)
	// asserting it now serves the fleet under Term. Terms increase
	// strictly monotonically, and every other record carries the term
	// it was written under, which is what lets AuditLedger prove no
	// two primaries were ever live at once.
	Kind   string `json:"kind"`
	Job    string `json:"job,omitempty"`
	Row    int    `json:"row,omitempty"`
	Epoch  uint64 `json:"epoch,omitempty"`
	Worker string `json:"worker,omitempty"`
	// Term is the coordinator term the record was written under (the
	// asserted term itself on a "term" record). 0 on ledgers from
	// before the HA plane existed.
	Term uint64 `json:"term,omitempty"`
	// GrantedNS and ExpiryNS bound a grant's validity on the
	// coordinator's clock (UnixNano). ExpiryNS is the grant-time
	// expiry; renewals may extend the live lease beyond it in memory,
	// so it is a lower bound on when the next epoch may start.
	GrantedNS int64 `json:"granted_ns,omitempty"`
	ExpiryNS  int64 `json:"expiry_ns,omitempty"`
	// Steal marks a grant that displaced an expired, unfinished
	// earlier epoch.
	Steal bool `json:"steal,omitempty"`
	// Early marks a grant whose previous epoch was released before its
	// recorded expiry by a deliberate coordinator action (requeue, held
	// re-verification vote, quarantine revocation) — the audit's
	// no-overlap check does not apply across such a release.
	Early bool `json:"early,omitempty"`
	// Digest is the attested row digest: on "complete", the digest the
	// accepted planes hash to; on "attest", the voter's claim; on
	// "strike"/"quarantine"/"invalidate", the digest that triggered
	// the event.
	Digest string `json:"digest,omitempty"`
	// Verified marks a complete that was settled by independent
	// agreement (two distinct workers, same digest) rather than taken
	// on one worker's word.
	Verified bool `json:"verified,omitempty"`
}

// ledgerRecovery is what replay yields: the last grant per row, each
// row's verification state, and the fleet-wide quarantine state —
// everything a restarted coordinator needs to resume the integrity
// plane where it left off.
type ledgerRecovery struct {
	grants map[rowKey]LedgerRecord
	rows   map[rowKey]*rowRecovery
	// quarantined names every worker a "strike" or "quarantine" record
	// names: the first proven lie quarantines, so a strike whose
	// quarantine record a crash cut off still fences its worker.
	quarantined map[string]bool
	// term is the highest coordinator term asserted in the ledger; 0
	// when the ledger predates the HA plane.
	term uint64
}

// rowRecovery is one row's replayed integrity state.
type rowRecovery struct {
	// completed reports the row's latest state is complete (a
	// "complete" record not followed by an "invalidate").
	completed bool
	// invalidated reports an "invalidate" retracted an earlier
	// complete — the journal may still hold the retracted bytes, and
	// recovery must ignore them.
	invalidated bool
	// digest/verified/completedBy mirror the latest complete record.
	digest      string
	verified    bool
	completedBy string
	// votes are the open re-verification votes (worker + digest); an
	// invalidate seeds them with the suspect's retracted claim so one
	// honest agreement can still settle the row. Only votes whose
	// digest is of the current record format (sweep.CurrentDigest) are
	// replayed: an honest vote of an earlier format matches no digest a
	// worker computes now, so it could only lose, and quarantine its
	// voter as a liar.
	votes []LedgerRecord
}

type rowKey struct {
	job string
	row int
}

// row returns (allocating) the recovery slot for k.
func (rec *ledgerRecovery) row(k rowKey) *rowRecovery {
	rr := rec.rows[k]
	if rr == nil {
		rr = &rowRecovery{}
		rec.rows[k] = rr
	}
	return rr
}

// openLedger opens or creates the ledger at path, replaying existing
// records and truncating any torn tail (a crash mid-append costs at
// most the record being written — which was never acked). A ledger
// torn during creation starts afresh: nothing in it was ever acked.
func openLedger(path string) (*durable.Log, *ledgerRecovery, error) {
	l, data, _, err := durable.OpenLog(path, ledgerMagic, []byte(ledgerMagic), nil)
	if err != nil {
		return nil, nil, fmt.Errorf("dist: opening lease ledger: %w", err)
	}
	rec := &ledgerRecovery{grants: map[rowKey]LedgerRecord{}, rows: map[rowKey]*rowRecovery{},
		quarantined: map[string]bool{}}
	if data == nil {
		return l, rec, nil
	}
	if !bytes.HasPrefix(data, []byte(ledgerMagic)) {
		l.Close()
		return nil, nil, fmt.Errorf("dist: %s is not a lease ledger (delete it to start over)", path)
	}
	records, good := scanLedger(data)
	for _, r := range records {
		k := rowKey{r.Job, r.Row}
		switch r.Kind {
		case "term":
			if r.Term > rec.term {
				rec.term = r.Term
			}
		case "grant":
			rec.grants[k] = r
		case "complete":
			rr := rec.row(k)
			rr.completed = true
			rr.invalidated = false
			rr.digest, rr.verified, rr.completedBy = r.Digest, r.Verified, r.Worker
			rr.votes = nil
		case "attest":
			if sweep.CurrentDigest(r.Digest) {
				rec.row(k).votes = append(rec.row(k).votes, r)
			}
		case "strike", "quarantine":
			rec.quarantined[r.Worker] = true
		case "invalidate":
			rr := rec.row(k)
			rr.completed = false
			rr.invalidated = true
			// The retracted claim stays on the record as a vote: if an
			// honest worker reproduces the suspect's digest, the values
			// were right after all and one agreement settles the row.
			rr.votes = nil
			if sweep.CurrentDigest(r.Digest) {
				rr.votes = []LedgerRecord{{Kind: "attest", Job: r.Job, Row: r.Row,
					Epoch: r.Epoch, Worker: r.Worker, Digest: r.Digest}}
			}
			rr.digest, rr.verified, rr.completedBy = "", false, ""
		}
	}
	if good < int64(len(data)) {
		if err := l.Cut(good); err != nil {
			l.Close()
			return nil, nil, fmt.Errorf("dist: truncating torn ledger tail: %w", err)
		}
	}
	return l, rec, nil
}

// scanLedger walks a ledger image and returns the clean records plus
// the clean prefix length.
func scanLedger(data []byte) ([]LedgerRecord, int64) {
	var out []LedgerRecord
	off := int64(len(ledgerMagic))
	for off < int64(len(data)) {
		rec, next, ok := parseLedgerRecord(data, off)
		if !ok {
			return out, off
		}
		out = append(out, rec)
		off = next
	}
	return out, off
}

// parseLedgerRecord decodes one framed record at off; ok is false on
// any framing, checksum or parse failure.
func parseLedgerRecord(data []byte, off int64) (rec LedgerRecord, next int64, ok bool) {
	payload, next, reason := durable.Parse(data, off)
	if reason != "" || json.Unmarshal(payload, &rec) != nil {
		return rec, 0, false
	}
	return rec, next, true
}

// frameRecord renders one record in the ledger's CRC wire framing.
// Framing is deterministic (struct field order fixes the JSON), which
// is what lets a standby replicate frames instead of records and end
// up with a replica ledger byte-identical to the primary's.
func frameRecord(rec LedgerRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("dist: encoding ledger record: %w", err)
	}
	return durable.Frame(payload), nil
}

// ReadLedger reads every clean record from a ledger file — the audit
// surface chaos tests and operators use.
func ReadLedger(path string) ([]LedgerRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dist: reading ledger: %w", err)
	}
	if !bytes.HasPrefix(data, []byte(ledgerMagic)) {
		return nil, fmt.Errorf("dist: %s is not a lease ledger", path)
	}
	recs, _ := scanLedger(data)
	return recs, nil
}

// LedgerAudit is what AuditLedger returns when a ledger passes: the
// grant accounting plus the full integrity-plane history, so a chaos
// soak (or an operator) can name every quarantine and every retracted
// row without replaying the protocol.
type LedgerAudit struct {
	// Grants maps "job/row" to its grant count (steal accounting).
	Grants map[string]int
	// Completes counts complete records, retracted ones included;
	// Verified counts the ones settled by independent agreement.
	Completes int
	Verified  int
	// Quarantines are the "quarantine" records in ledger order; each
	// names the fenced worker and the row + digest that tripped it.
	Quarantines []LedgerRecord
	// Invalidations are the "invalidate" records: every row retracted
	// from a quarantined worker, with the digest it had claimed.
	Invalidations []LedgerRecord
	// Strikes are the "strike" records: every vote a worker's digest
	// lost.
	Strikes []LedgerRecord
	// Terms are the "term" records in ledger order: every coordinator
	// that ever served this ledger's fleet, in strictly increasing
	// term order. Empty on pre-HA ledgers.
	Terms []LedgerRecord
}

// AuditLedger checks the exactly-once, no-two-live-epochs, and
// integrity-plane invariants a ledger must satisfy:
//
//   - per row, grant epochs increase strictly monotonically;
//   - a later epoch's grant time is at or after the previous epoch's
//     recorded expiry (leases never overlap);
//   - every complete's and attest's epoch matches a granted epoch;
//   - at most one live complete per row: a second complete is legal
//     only after an "invalidate" retracted the first;
//   - an invalidate only retracts a row that was complete;
//   - no complete or attest from a worker already quarantined at that
//     point in the ledger;
//   - coordinator terms increase strictly monotonically, and every
//     record is written under the term current at its position — the
//     no-two-live-primaries invariant: once a promoted standby's term
//     record lands, nothing from the deposed primary's term can ever
//     follow it.
//
// Returns the audit summary or an error describing the first
// violation.
func AuditLedger(recs []LedgerRecord) (*LedgerAudit, error) {
	type rowAudit struct {
		grants   []LedgerRecord
		complete bool
	}
	rows := map[rowKey]*rowAudit{}
	quarantined := map[string]bool{}
	audit := &LedgerAudit{Grants: map[string]int{}}
	var keys []rowKey
	var currentTerm uint64
	epochGranted := func(a *rowAudit, epoch uint64) bool {
		for _, g := range a.grants {
			if g.Epoch == epoch {
				return true
			}
		}
		return false
	}
	for _, r := range recs {
		if r.Kind == "term" {
			if r.Term <= currentTerm {
				return nil, fmt.Errorf("dist: audit: term regressed %d -> %d (coordinator %s)", currentTerm, r.Term, r.Worker)
			}
			currentTerm = r.Term
			audit.Terms = append(audit.Terms, r)
			continue
		}
		if r.Term != currentTerm {
			return nil, fmt.Errorf("dist: audit: %s record for %s row %d written under term %d while term %d was current — two live primaries",
				r.Kind, r.Job, r.Row, r.Term, currentTerm)
		}
		k := rowKey{r.Job, r.Row}
		a := rows[k]
		if a == nil {
			a = &rowAudit{}
			rows[k] = a
			keys = append(keys, k)
		}
		switch r.Kind {
		case "grant":
			a.grants = append(a.grants, r)
		case "complete":
			if !epochGranted(a, r.Epoch) {
				return nil, fmt.Errorf("dist: audit: %s row %d completed under never-granted epoch %d", r.Job, r.Row, r.Epoch)
			}
			if a.complete {
				return nil, fmt.Errorf("dist: audit: %s row %d completed twice without an invalidate", r.Job, r.Row)
			}
			if quarantined[r.Worker] {
				return nil, fmt.Errorf("dist: audit: %s row %d completed by quarantined worker %s", r.Job, r.Row, r.Worker)
			}
			a.complete = true
			audit.Completes++
			if r.Verified {
				audit.Verified++
			}
		case "attest":
			if !epochGranted(a, r.Epoch) {
				return nil, fmt.Errorf("dist: audit: %s row %d attested under never-granted epoch %d", r.Job, r.Row, r.Epoch)
			}
			if quarantined[r.Worker] {
				return nil, fmt.Errorf("dist: audit: %s row %d attested by quarantined worker %s", r.Job, r.Row, r.Worker)
			}
		case "strike":
			if r.Worker == "" {
				return nil, fmt.Errorf("dist: audit: strike record without a worker")
			}
			audit.Strikes = append(audit.Strikes, r)
		case "quarantine":
			if r.Worker == "" {
				return nil, fmt.Errorf("dist: audit: quarantine record without a worker")
			}
			quarantined[r.Worker] = true
			audit.Quarantines = append(audit.Quarantines, r)
		case "invalidate":
			if !a.complete {
				return nil, fmt.Errorf("dist: audit: %s row %d invalidated while not complete", r.Job, r.Row)
			}
			a.complete = false
			audit.Invalidations = append(audit.Invalidations, r)
		default:
			return nil, fmt.Errorf("dist: audit: unknown record kind %q", r.Kind)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].job != keys[j].job {
			return keys[i].job < keys[j].job
		}
		return keys[i].row < keys[j].row
	})
	for _, k := range keys {
		a := rows[k]
		for i, g := range a.grants {
			if i == 0 {
				continue
			}
			prev := a.grants[i-1]
			if g.Epoch <= prev.Epoch {
				return nil, fmt.Errorf("dist: audit: %s row %d epoch regressed %d -> %d", k.job, k.row, prev.Epoch, g.Epoch)
			}
			if !g.Early && g.GrantedNS < prev.ExpiryNS {
				return nil, fmt.Errorf("dist: audit: %s row %d epoch %d granted %dns before epoch %d expired",
					k.job, k.row, g.Epoch, prev.ExpiryNS-g.GrantedNS, prev.Epoch)
			}
		}
		audit.Grants[fmt.Sprintf("%s/%d", k.job, k.row)] = len(a.grants)
	}
	return audit, nil
}
