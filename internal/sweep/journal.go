package sweep

// Journal v2: a crash-only, per-record checksummed checkpoint log.
//
// The v1 journal was a plain CSV file — readable, but a single torn
// write (power loss mid-append) made the whole file unparsable and
// forced the operator to delete hours of finished work. v2 frames
// every record so the loader can tell exactly where a crash landed
// and salvage everything before it:
//
//	gpuscale-journal v2\n
//	<crc32:8-hex> <len:decimal> <json-payload>\n
//	<crc32:8-hex> <len:decimal> <json-payload>\n
//	...
//
// The CRC32 (IEEE) covers the JSON payload bytes only. The first
// record describes the configuration grid (so a journal can never be
// resumed against the wrong space); every later record is one
// completed kernel row. Recovery scans records in order and truncates
// the file at the first framing, checksum, parse, or validation
// failure instead of erroring — a torn tail costs at most the row
// that was being written. The frame, the fsynced self-healing append
// and the atomic rewrite are internal/durable's; this file owns the
// payloads and what recovery makes of them.
//
// v1 CSV journals (and completed WriteCSV archives) are still
// accepted: complete all-OK rows are salvaged and the file is
// migrated to v2 atomically.

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sync"

	"gpuscale/internal/durable"
	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
)

// journalMagic is the version header; bumping the version means old
// binaries refuse the file instead of misreading it.
const journalMagic = "gpuscale-journal v2\n"

// journalRecord is the JSON payload of one framed record: either a
// space record (Space set, row fields empty) or a row record (Kernel
// and the three planes set). Cells in a row record are all StatusOK
// by construction — AppendRow refuses incomplete rows — so status is
// not stored.
type journalRecord struct {
	Space  *hw.Space   `json:"space,omitempty"`
	Kernel string      `json:"kernel,omitempty"`
	Tput   []float64   `json:"tput,omitempty"`
	TimeNS []float64   `json:"time_ns,omitempty"`
	Bound  []gcn.Bound `json:"bound,omitempty"`
}

// SalvageReport describes what recovery had to discard to make a
// journal readable again. gpusweep surfaces a non-nil report as a
// distinct exit code so scripts notice silent truncation.
type SalvageReport struct {
	// DroppedBytes is how much of the file tail was cut off.
	DroppedBytes int64
	// DroppedRecords approximates how many records the dropped tail
	// held (newline count — a torn record has no reliable framing).
	DroppedRecords int
	// MigratedV1 reports that the file was a v1 CSV journal and has
	// been rewritten in v2 format.
	MigratedV1 bool
	// Reason says what stopped the scan, for logs.
	Reason string
}

// JournalOptions tunes journal construction; the zero value is
// production behavior.
type JournalOptions struct {
	// WrapWriter, if non-nil, wraps the file handle the journal
	// appends through. It exists so fault injection (torn writes) can
	// interpose deterministically; see fault.Injector.WrapWriter.
	WrapWriter func(io.Writer) io.Writer
}

// Journal is an append-only, checksummed checkpoint log for a sweep:
// completed kernel rows are framed, CRC'd and fsynced as they finish,
// and reopening the file recovers them — salvaging past any torn or
// corrupt tail — so a Resume only recomputes what is missing.
type Journal struct {
	space   hw.Space
	prior   *Matrix
	salvage *SalvageReport

	mu  sync.Mutex
	log *durable.Log
}

// OpenJournal opens or creates a sweep journal at path. An existing
// v2 file is scanned record by record and truncated at the first
// corrupt record; a v1 CSV journal (or completed archive) is salvaged
// and migrated to v2; a file that is neither is rejected rather than
// overwritten. Check Salvage() after opening to learn whether
// recovery had to drop anything.
func OpenJournal(path string, space hw.Space) (*Journal, error) {
	return OpenJournalWith(path, space, JournalOptions{})
}

// OpenJournalWith is OpenJournal with explicit options.
func OpenJournalWith(path string, space hw.Space, opts JournalOptions) (*Journal, error) {
	if space.Size() == 0 {
		return nil, fmt.Errorf("sweep: journal %s: empty configuration space", path)
	}
	header, err := journalHeader(space)
	if err != nil {
		return nil, err
	}
	log, data, torn, err := durable.OpenLog(path, journalMagic, header, opts.WrapWriter)
	if err != nil {
		return nil, fmt.Errorf("sweep: opening journal: %w", err)
	}
	j := &Journal{space: space, log: log}
	switch {
	case data == nil:
		if torn > 0 {
			// Crash during the very first header write: nothing of
			// value was ever in the file.
			j.salvage = &SalvageReport{DroppedBytes: torn, DroppedRecords: 1, Reason: "torn journal header"}
		}
	case bytes.HasPrefix(data, []byte(journalMagic)):
		err = j.recoverV2(data)
	case looksLikeSweepCSV(data):
		err = j.migrateV1(data)
	default:
		err = fmt.Errorf("sweep: journal %s is neither a v2 journal nor a sweep CSV (delete it to start over)", path)
	}
	if err != nil {
		log.Close()
		return nil, err
	}
	return j, nil
}

// looksLikeSweepCSV sniffs a v1 journal / WriteCSV archive by its
// header line.
func looksLikeSweepCSV(data []byte) bool {
	return bytes.HasPrefix(data, []byte("kernel,"))
}

// journalHeader is a fresh journal's first write: the magic line
// plus the record pinning its configuration space.
func journalHeader(space hw.Space) ([]byte, error) {
	framed, err := frameRecord(journalRecord{Space: &space})
	if err != nil {
		return nil, err
	}
	return append([]byte(journalMagic), framed...), nil
}

// recoverV2 scans an existing v2 file, truncating at the first bad
// record. A clean file costs one pass and no writes.
func (j *Journal) recoverV2(data []byte) error {
	prior, good, reason, err := scanJournal(data, j.space)
	switch {
	case err != nil:
		return err
	case good == 0:
		// Header or space record was torn/corrupt — start over.
		err = j.log.Reset()
		j.salvage = &SalvageReport{DroppedBytes: int64(len(data)), DroppedRecords: 1, Reason: reason}
	case good < int64(len(data)):
		err = j.log.Cut(good)
		j.salvage = &SalvageReport{
			DroppedBytes:   int64(len(data)) - good,
			DroppedRecords: countRecords(data[good:]),
			Reason:         reason,
		}
	}
	if err != nil {
		return fmt.Errorf("sweep: salvaging journal: %w", err)
	}
	j.prior = prior
	return nil
}

// countRecords approximates how many records a byte region held.
func countRecords(b []byte) int {
	n := bytes.Count(b, []byte{'\n'})
	if len(b) > 0 && b[len(b)-1] != '\n' {
		n++
	}
	return n
}

// scanJournal walks a v2 journal image and returns the recovered
// matrix (nil if no rows), the clean prefix length in bytes, and a
// human-readable reason when the scan stopped before the end. The
// error return is reserved for files that must not be silently
// repaired: a journal written for a different configuration space.
// good == 0 with nil error means nothing before the space record was
// usable and the caller should start fresh.
func scanJournal(data []byte, space hw.Space) (m *Matrix, good int64, reason string, err error) {
	if !bytes.HasPrefix(data, []byte(journalMagic)) {
		return nil, 0, "missing journal magic", nil
	}
	off := int64(len(journalMagic))
	nCfg := space.Size()
	rows := map[string]int{}
	sawSpace := false
	for off < int64(len(data)) {
		rec, next, why := parseRecord(data, off)
		if why != "" {
			return m, journalGood(sawSpace, off), fmt.Sprintf("%s at byte %d", why, off), nil
		}
		if rec.Space != nil {
			if sawSpace {
				return m, off, fmt.Sprintf("duplicate space record at byte %d", off), nil
			}
			if !rec.Space.Equal(space) {
				return nil, 0, "", fmt.Errorf("sweep: journal was written for a different configuration space")
			}
			sawSpace = true
			off = next
			continue
		}
		if !sawSpace {
			return nil, 0, fmt.Sprintf("row record before space record at byte %d", off), nil
		}
		if why := validateRowRecord(rec, nCfg); why != "" {
			return m, off, fmt.Sprintf("%s at byte %d", why, off), nil
		}
		if m == nil {
			m = &Matrix{Space: space}
		}
		ri, ok := rows[rec.Kernel]
		if !ok {
			ri = len(m.Kernels)
			rows[rec.Kernel] = ri
			m.Kernels = append(m.Kernels, rec.Kernel)
			m.Throughput = append(m.Throughput, nil)
			m.TimeNS = append(m.TimeNS, nil)
			m.Bound = append(m.Bound, nil)
			m.Status = append(m.Status, nil)
		}
		m.Throughput[ri] = rec.Tput
		m.TimeNS[ri] = rec.TimeNS
		m.Bound[ri] = rec.Bound
		m.Status[ri] = make([]CellStatus, nCfg) // all StatusOK
		off = next
	}
	if !sawSpace {
		// Magic with no space record: a write tore exactly at the
		// header boundary. Nothing is salvageable past the magic.
		return nil, 0, "journal has no space record", nil
	}
	return m, off, "", nil
}

// journalGood maps "scan stopped at off" to a truncation point: if
// the space record itself never parsed, nothing is salvageable.
func journalGood(sawSpace bool, off int64) int64 {
	if !sawSpace {
		return 0
	}
	return off
}

// parseRecord decodes one framed record starting at off. It returns
// the record, the offset just past its trailing newline, and a
// non-empty reason on any framing/checksum/parse failure.
func parseRecord(data []byte, off int64) (rec journalRecord, next int64, reason string) {
	payload, next, reason := durable.Parse(data, off)
	if reason != "" {
		return rec, 0, reason
	}
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return rec, 0, "unparsable record payload"
	}
	if dec.More() {
		return rec, 0, "trailing data in record payload"
	}
	return rec, next, ""
}

// validateRowRecord applies the same hygiene as the CSV loader:
// journaled cells are all StatusOK, so every measurement must be a
// positive finite number and every bound in range. Returns a reason
// or "".
func validateRowRecord(rec journalRecord, nCfg int) string {
	if rec.Kernel == "" {
		return "record with no kernel"
	}
	if len(rec.Tput) != nCfg || len(rec.TimeNS) != nCfg || len(rec.Bound) != nCfg {
		return fmt.Sprintf("row record for %q has wrong plane length", rec.Kernel)
	}
	for i := range rec.Tput {
		if !(rec.Tput[i] > 0) || math.IsInf(rec.Tput[i], 0) {
			return fmt.Sprintf("row record for %q has out-of-range throughput", rec.Kernel)
		}
		if !(rec.TimeNS[i] > 0) || math.IsInf(rec.TimeNS[i], 0) {
			return fmt.Sprintf("row record for %q has out-of-range time", rec.Kernel)
		}
		if rec.Bound[i] < gcn.BoundCompute || rec.Bound[i] > gcn.BoundLaunch {
			return fmt.Sprintf("row record for %q has unknown bound", rec.Kernel)
		}
	}
	return ""
}

// frameRecord renders a record in its durable frame.
func frameRecord(rec journalRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("sweep: encoding journal record: %w", err)
	}
	return durable.Frame(payload), nil
}

// migrateV1 salvages a v1 CSV journal (or a completed WriteCSV
// archive) and atomically rewrites the file in v2 format. Only
// complete all-OK kernel rows survive — exactly what v1's AppendRow
// ever wrote — and a torn CSV tail is dropped rather than fatal.
func (j *Journal) migrateV1(data []byte) error {
	prior, droppedBytes, droppedRecords := salvageV1CSV(data, j.space)
	image, err := journalHeader(j.space)
	if prior != nil {
		image, err = CanonicalJournalBytes(prior, prior.Kernels)
	}
	if err != nil {
		return err
	}
	// A crash mid-migration leaves the old v1 file, which simply
	// migrates again next open.
	if err := j.log.Replace(image); err != nil {
		return fmt.Errorf("sweep: migrating v1 journal: %w", err)
	}
	j.prior = prior
	j.salvage = &SalvageReport{
		DroppedBytes:   droppedBytes,
		DroppedRecords: droppedRecords,
		MigratedV1:     true,
		Reason:         "v1 CSV journal migrated to v2",
	}
	return nil
}

// salvageV1CSV reads a v1 CSV journal tolerantly: it stops at the
// first malformed line instead of erroring, then keeps only kernels
// whose rows are complete and all-OK. Returns the salvaged matrix
// (nil if none), bytes of unreadable tail, and the count of dropped
// data lines (torn tail plus lines of incomplete kernels).
func salvageV1CSV(data []byte, space hw.Space) (*Matrix, int64, int) {
	br := bytes.NewReader(data)
	cr := csv.NewReader(br)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil || len(header) < 7 || header[0] != "kernel" {
		return nil, int64(len(data)), countRecords(data)
	}
	legacy := len(header) == 7
	nCfg := space.Size()
	d := newCSVDecoder(space, legacy)
	m := &Matrix{Space: space}
	rows := map[string]int{}
	var filled [][]bool
	var rowLines []int
	goodOffset := cr.InputOffset()
	tornLines := 0
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			tornLines = countRecords(data[goodOffset:])
			break
		}
		cell, derr := d.decode(rec, line)
		if derr != nil {
			tornLines = countRecords(data[goodOffset:])
			break
		}
		ri, ok := rows[cell.kernel]
		if !ok {
			ri = len(m.Kernels)
			rows[cell.kernel] = ri
			m.Kernels = append(m.Kernels, cell.kernel)
			m.Throughput = append(m.Throughput, make([]float64, nCfg))
			m.TimeNS = append(m.TimeNS, make([]float64, nCfg))
			m.Bound = append(m.Bound, make([]gcn.Bound, nCfg))
			m.Status = append(m.Status, failedRow(nCfg))
			filled = append(filled, make([]bool, nCfg))
			rowLines = append(rowLines, 0)
		}
		m.Throughput[ri][cell.ci] = cell.tput
		m.TimeNS[ri][cell.ci] = cell.tns
		m.Bound[ri][cell.ci] = cell.bound
		m.Status[ri][cell.ci] = cell.status
		filled[ri][cell.ci] = true
		rowLines[ri]++
		goodOffset = cr.InputOffset()
	}
	droppedBytes := int64(len(data)) - goodOffset
	// Keep only kernels with every cell present and StatusOK; a
	// partial or failed row is recomputed by the resume anyway.
	kept := &Matrix{Space: space}
	droppedLines := tornLines
	for ri := range m.Kernels {
		complete := true
		for c := 0; c < nCfg; c++ {
			if !filled[ri][c] || m.Status[ri][c] != StatusOK {
				complete = false
				break
			}
		}
		if !complete {
			droppedLines += rowLines[ri]
			continue
		}
		kept.Kernels = append(kept.Kernels, m.Kernels[ri])
		kept.Throughput = append(kept.Throughput, m.Throughput[ri])
		kept.TimeNS = append(kept.TimeNS, m.TimeNS[ri])
		kept.Bound = append(kept.Bound, m.Bound[ri])
		kept.Status = append(kept.Status, m.Status[ri])
	}
	if len(kept.Kernels) == 0 {
		kept = nil
	}
	return kept, droppedBytes, droppedLines
}

// rowRecord frames row r of m as a v2 row record.
func rowRecord(m *Matrix, r int) ([]byte, error) {
	rec, err := EncodeRow(m, r)
	if err != nil {
		return nil, err
	}
	return durable.Frame(rec.payload), nil
}

// RowRecord is one complete kernel row's v2 journal record payload:
// the bytes a journal frames and fsyncs, and the bytes a row digest
// hashes. Only EncodeRow and EncodePlanes produce one, so a journal
// append can carry nothing but a rendered row. A process renders each
// row once and hands the same record to every journal and digest that
// needs it.
type RowRecord struct {
	kernel  string
	cells   int
	payload []byte
}

// Len is the size of the record's payload in bytes.
func (r RowRecord) Len() int { return len(r.payload) }

// EncodeRow renders row r of m as its v2 record payload. The row must
// be complete (all StatusOK) — the only kind of row a journal holds.
func EncodeRow(m *Matrix, r int) (RowRecord, error) {
	if !m.RowComplete(r) {
		return RowRecord{}, fmt.Errorf("sweep: incomplete row %s has no journal record", m.Kernels[r])
	}
	return EncodePlanes(m.Kernels[r], m.Throughput[r], m.TimeNS[r], m.Bound[r])
}

// EncodePlanes renders one complete row's measurement planes as the
// v2 record payload EncodeRow would give the same row: the planes must
// be equally long, one entry per configuration. Rendering is the JSON
// encoding the journal has always written, so records — and the
// digests over them — are byte-stable across versions.
func EncodePlanes(kernelName string, tput, timeNS []float64, bound []gcn.Bound) (RowRecord, error) {
	if len(timeNS) != len(tput) || len(bound) != len(tput) {
		return RowRecord{}, fmt.Errorf("sweep: encoding %s: planes of unequal length", kernelName)
	}
	payload, err := json.Marshal(journalRecord{Kernel: kernelName, Tput: tput, TimeNS: timeNS, Bound: bound})
	if err != nil {
		return RowRecord{}, fmt.Errorf("sweep: encoding journal record: %w", err)
	}
	return RowRecord{kernel: kernelName, cells: len(tput), payload: payload}, nil
}

// RecordDigest hashes a row record: FNV-64a over its payload, as 16
// hex digits. Because the digest covers exactly the bytes a journal
// append writes (modulo the CRC frame, which the CRC already guards),
// "the digest matches" and "the journaled bytes match" are the same
// statement — which is what lets a coordinator attest a row it
// received over the wire without re-running the engine. Honest
// re-executions of a row are bit-identical (seeded noise), so equal
// digests mean equal rows.
func RecordDigest(rec RowRecord) string {
	h := fnv.New64a()
	h.Write(rec.payload)
	return fmt.Sprintf("%016x", h.Sum64())
}

// RowDigest is RecordDigest over row r of m. The row must be complete
// (all StatusOK) — the only kind of row a journal holds.
func RowDigest(m *Matrix, r int) (string, error) {
	rec, err := EncodeRow(m, r)
	if err != nil {
		return "", err
	}
	return RecordDigest(rec), nil
}

// Prior returns the matrix recovered from an existing journal file,
// or nil for a fresh journal. Pass it to Resume. Recovered cells are
// exact: JSON float64 encoding round-trips, so a resumed sweep's
// final matrix is byte-identical to an uninterrupted run's.
func (j *Journal) Prior() *Matrix { return j.prior }

// Salvage reports what recovery discarded when the journal was
// opened, or nil if the file was clean (or new).
func (j *Journal) Salvage() *SalvageReport { return j.salvage }

// AppendRow checkpoints row r of m if — and only if — every cell is
// StatusOK: rows with failed, stalled or quarantined cells are left
// out so the next Resume recomputes them. Safe for concurrent use;
// matches the Options.OnRow signature via a closure. The record is
// fsynced before AppendRow returns, and a failed or torn write is
// rolled back so the file stays clean.
func (j *Journal) AppendRow(m *Matrix, r int) error {
	if !m.RowComplete(r) {
		return nil
	}
	rec, err := EncodeRow(m, r)
	if err != nil {
		return err
	}
	return j.AppendRecord(rec)
}

// AppendRecord frames rendered row records and appends them in one
// write and one fsync before returning; a failed or torn write is
// rolled back, so the file stays clean and holds none of them. Every
// record must have been rendered for this journal's configuration
// space. Safe for concurrent use.
func (j *Journal) AppendRecord(recs ...RowRecord) error {
	size := 0
	for _, rec := range recs {
		size += len(rec.payload) + 21 // the frame's CRC, length and separators
	}
	framed := make([]byte, 0, size)
	for _, rec := range recs {
		if rec.payload == nil || rec.cells != j.space.Size() {
			return fmt.Errorf("sweep: journaling %s: record holds %d cells, the journal's space has %d",
				rec.kernel, rec.cells, j.space.Size())
		}
		framed = durable.AppendFrame(framed, rec.payload)
	}
	if len(recs) == 0 {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.log.Append(framed); err != nil {
		what := recs[0].kernel
		if len(recs) > 1 {
			what = fmt.Sprintf("%d rows from %s", len(recs), what)
		}
		return fmt.Errorf("sweep: journaling %s: %w", what, err)
	}
	return nil
}

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}

// ErrJournalIncomplete is returned by VerifyComplete when the journal
// is missing kernels or cells.
var ErrJournalIncomplete = errors.New("sweep: journal incomplete")

// VerifyComplete re-reads the journal's clean prefix from disk and
// checks that it now covers every named kernel with a fully OK row — the post-Resume
// sanity check before the journal is archived.
func (j *Journal) VerifyComplete(kernels []string) error {
	j.mu.Lock()
	data, err := j.log.Prefix()
	j.mu.Unlock()
	if err != nil {
		return err
	}
	m, good, reason, err := scanJournal(data, j.space)
	if err != nil {
		return err
	}
	if good < int64(len(data)) {
		return fmt.Errorf("%w: %s", ErrJournalIncomplete, reason)
	}
	for _, k := range kernels {
		if m == nil {
			return fmt.Errorf("%w: kernel %s", ErrJournalIncomplete, k)
		}
		r := m.Row(k)
		if r < 0 || !m.RowComplete(r) {
			return fmt.Errorf("%w: kernel %s", ErrJournalIncomplete, k)
		}
	}
	return nil
}
