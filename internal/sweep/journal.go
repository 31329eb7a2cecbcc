package sweep

// Journal v3: a crash-only, per-record checksummed checkpoint log.
//
// The v1 journal was a plain CSV file — readable, but a single torn
// write (power loss mid-append) made the whole file unparsable and
// forced the operator to delete hours of finished work. v2 framed
// every record so the loader can tell exactly where a crash landed
// and salvage everything before it; v3 keeps the frame and makes a row
// record the row's packed planes (record.go) instead of JSON:
//
//	gpuscale-journal v3\n
//	<crc32:8-hex> <len:decimal> <space record: JSON>\n
//	<crc32:8-hex> <len:decimal> <row record: kernel name + packed planes>\n
//	...
//
// The CRC32 (IEEE) covers the payload bytes only, and the length
// delimits a payload, so a row record's binary bytes may hold any
// byte, newlines included. The first record describes the
// configuration grid (so a journal can never be resumed against the
// wrong space); every later record is one completed kernel row.
// Recovery scans records in order and truncates the file at the first
// framing, checksum, parse, or validation failure instead of erroring
// — a torn tail costs at most the row that was being written. The
// frame, the fsynced self-healing append and the atomic rewrite are
// internal/durable's; this file owns the payloads and what recovery
// makes of them.
//
// v2 journals (journalv2.go) and v1 CSV journals (and completed
// WriteCSV archives) are still accepted: their complete rows are
// salvaged and the file is migrated to v3 atomically.

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"

	"gpuscale/internal/durable"
	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
)

// journalMagic is the version header; bumping the version means old
// binaries refuse the file instead of misreading it.
const journalMagic = "gpuscale-journal v3\n"

// spaceRecord is the payload of a journal's first record, the space
// record: the configuration grid as JSON.
type spaceRecord struct {
	Space *hw.Space `json:"space"`
}

// journalRow is one row record as recovery reads it, from a v3 record
// or a v2 one. Its cells are all StatusOK by construction — a journal
// holds complete rows only — so status is not stored.
type journalRow struct {
	kernel       string
	tput, timeNS []float64
	bound        []gcn.Bound
}

// SalvageReport describes what recovery had to discard to make a
// journal readable again. gpusweep surfaces a non-nil report as a
// distinct exit code so scripts notice silent truncation.
type SalvageReport struct {
	// DroppedBytes is how much of the file tail was cut off.
	DroppedBytes int64
	// DroppedRecords approximates how many records the dropped tail
	// held: frames counted by their length fields, or lines of a v1
	// CSV journal (a torn record has no reliable framing).
	DroppedRecords int
	// MigratedFrom names the format the file was rewritten from in v3
	// format — "v1 CSV" or "v2" — or is empty when it was v3 already.
	MigratedFrom string
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
// v3 file is scanned record by record and truncated at the first
// corrupt record; a v2 journal or a v1 CSV journal (or completed
// archive) is salvaged and migrated to v3; a file that is none of
// these is rejected rather than overwritten. Check Salvage() after
// opening to learn whether recovery had to drop or migrate anything.
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
		err = j.recoverV3(data)
	case isV2(data):
		err = j.migrate(data, "v2")
	case looksLikeSweepCSV(data):
		err = j.migrate(data, "v1 CSV")
	default:
		err = fmt.Errorf("sweep: journal %s is neither a journal nor a sweep CSV (delete it to start over)", path)
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
	payload, err := json.Marshal(spaceRecord{Space: &space})
	if err != nil {
		return nil, fmt.Errorf("sweep: encoding journal space record: %w", err)
	}
	return append([]byte(journalMagic), durable.Frame(payload)...), nil
}

// recoverV3 scans an existing v3 file, truncating at the first bad
// record. A clean file costs one pass and no writes.
func (j *Journal) recoverV3(data []byte) error {
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
			DroppedRecords: countFrames(data[good:]),
			Reason:         reason,
		}
	}
	if err != nil {
		return fmt.Errorf("sweep: salvaging journal: %w", err)
	}
	j.prior = prior
	return nil
}

// countRecords approximates how many lines a byte region held.
func countRecords(b []byte) int {
	n := bytes.Count(b, []byte{'\n'})
	if len(b) > 0 && b[len(b)-1] != '\n' {
		n++
	}
	return n
}

// countFrames approximates how many records a dropped journal tail
// held: it steps from frame to frame by their length fields, trusting
// no checksum, and counts what is left where a frame header does not
// read as one more record.
func countFrames(b []byte) int {
	n := 0
	for len(b) > 0 {
		n++
		if len(b) < 10 || b[8] != ' ' {
			return n
		}
		end := bytes.IndexByte(b[9:], ' ')
		if end <= 0 {
			return n
		}
		size, err := strconv.Atoi(string(b[9 : 9+end]))
		if err != nil || size <= 0 || size > len(b) || 9+end+size+2 > len(b) {
			return n
		}
		b = b[9+end+size+2:]
	}
	return n
}

// scanJournal walks a journal image — v3, or v2 (journalv2.go) — and
// returns the recovered matrix (nil if no rows), the clean prefix
// length in bytes, and a human-readable reason when the scan stopped
// before the end. The error return is reserved for files that must
// not be silently repaired: a journal written for a different
// configuration space. A zero space takes the space record's own.
// good == 0 with nil error means nothing before the space record was
// usable and the caller should start fresh.
func scanJournal(data []byte, space hw.Space) (m *Matrix, good int64, reason string, err error) {
	magic, decodeRow := journalMagic, decodeRowRecord
	if isV2(data) {
		magic, decodeRow = journalMagicV2, decodeV2Row
	}
	if !bytes.HasPrefix(data, []byte(magic)) {
		return nil, 0, "missing journal magic", nil
	}
	off := int64(len(magic))
	rows := map[string]int{}
	sawSpace := false
	for off < int64(len(data)) {
		payload, next, why := durable.Parse(data, off)
		if why != "" {
			return m, journalGood(sawSpace, off), fmt.Sprintf("%s at byte %d", why, off), nil
		}
		if !sawSpace {
			// The first record is the space record.
			sp, why := parseSpaceRecord(payload)
			if why == "" && space.Size() == 0 {
				if space = sp; space.Size() == 0 {
					why = "empty configuration space"
				}
			}
			if why != "" {
				return nil, 0, fmt.Sprintf("%s at byte %d", why, off), nil
			}
			if !sp.Equal(space) {
				return nil, 0, "", fmt.Errorf("sweep: journal was written for a different configuration space")
			}
			sawSpace = true
			off = next
			continue
		}
		row, why := decodeRow(payload, space.Size())
		if why != "" {
			return m, off, fmt.Sprintf("%s at byte %d", why, off), nil
		}
		if m == nil {
			m = &Matrix{Space: space}
		}
		ri, ok := rows[row.kernel]
		if !ok {
			ri = len(m.Kernels)
			rows[row.kernel] = ri
			m.Kernels = append(m.Kernels, row.kernel)
			m.Throughput = append(m.Throughput, nil)
			m.TimeNS = append(m.TimeNS, nil)
			m.Bound = append(m.Bound, nil)
			m.Status = append(m.Status, nil)
		}
		m.Throughput[ri], m.TimeNS[ri], m.Bound[ri] = row.tput, row.timeNS, row.bound
		m.Status[ri] = make([]CellStatus, space.Size()) // all StatusOK
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

// parseSpaceRecord decodes a space record's payload, refusing unknown
// fields; reason is non-empty when it is not one.
func parseSpaceRecord(payload []byte) (space hw.Space, reason string) {
	var rec spaceRecord
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil || rec.Space == nil {
		return space, "unparsable space record"
	}
	if dec.More() {
		return space, "trailing data in space record"
	}
	return *rec.Space, ""
}

// migrate salvages a v2 journal or a v1 CSV journal (or a completed
// WriteCSV archive) and atomically rewrites the file in v3 format.
// Only complete rows survive — exactly what AppendRow ever wrote — and
// a torn tail is dropped rather than fatal. A crash mid-migration
// leaves the old file, which simply migrates again next open.
func (j *Journal) migrate(data []byte, from string) error {
	var (
		prior   *Matrix
		dropped int64
		records int
		reason  = from + " journal migrated to v3"
	)
	if from == "v1 CSV" {
		prior, dropped, records = salvageV1CSV(data, j.space)
	} else {
		m, good, why, err := scanJournal(data, j.space)
		if err != nil {
			return err
		}
		if prior, dropped = m, int64(len(data))-good; dropped > 0 {
			records, reason = countFrames(data[good:]), why
		}
	}
	image, err := journalHeader(j.space)
	if prior != nil {
		image, err = CanonicalJournalBytes(prior, prior.Kernels)
	}
	if err != nil {
		return err
	}
	if err := j.log.Replace(image); err != nil {
		return fmt.Errorf("sweep: migrating %s journal: %w", from, err)
	}
	j.prior = prior
	j.salvage = &SalvageReport{DroppedBytes: dropped, DroppedRecords: records, MigratedFrom: from, Reason: reason}
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

// rowRecord frames row r of m as a row record.
func rowRecord(m *Matrix, r int) ([]byte, error) {
	rec, err := EncodeRow(m, r)
	if err != nil {
		return nil, err
	}
	return durable.Frame(rec.payload), nil
}

// Prior returns the matrix recovered from an existing journal file,
// or nil for a fresh journal. Pass it to Resume. Recovered cells are
// exact: a row record holds each float64's bits, so a resumed sweep's
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

// AppendRecord frames row records and appends them in one write and
// one fsync before returning; a failed or torn write is rolled back, so
// the file stays clean and holds none of them. Every record must hold
// a row of this journal's configuration space. Safe for concurrent
// use.
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
