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
// — a torn tail costs at most the append that was being written. An
// append is one write and one fsync of one or more whole records: a
// group of rows the journal's committer took together (Commit), or a
// fleet batch (AppendRecord). The frame and the fsynced self-healing
// append are internal/durable's; this file owns the payloads and what
// recovery makes of them.
//
// A file an earlier build wrote — a v2 journal, whose row records were
// JSON, or a v1 journal, which was a plain CSV like a finished WriteCSV
// archive — is refused with an error that names its format, and its
// bytes are left exactly as they were.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"gpuscale/internal/durable"
	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
)

// journalMagic is the version header; bumping the version means old
// binaries refuse the file instead of misreading it.
const journalMagic = "gpuscale-journal v3\n"

// journalMagicV2 begins a v2 journal, which this build refuses by name.
const journalMagicV2 = "gpuscale-journal v2"

// spaceRecord is the payload of a journal's first record, the space
// record: the configuration grid as JSON.
type spaceRecord struct {
	Space *hw.Space `json:"space"`
}

// journalRow is one row record as recovery reads it. Its cells are
// all StatusOK by construction — a journal holds complete rows only —
// so status is not stored.
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
	// held: frames counted by their length fields (a torn record has
	// no reliable framing).
	DroppedRecords int
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
	// OnAppend, if non-nil, hears about each group append the journal's
	// committer makes (see Commit): on the committer's goroutine, after
	// the write and fsync and before the group's callbacks run.
	OnAppend func(GroupAppend)
}

// GroupAppend describes one group append: one write and one fsync of
// Rows row records, Bytes framed bytes in all, that began at Start and
// took Took. Err is the append's error; the file then holds none of
// the group.
type GroupAppend struct {
	Rows, Bytes int
	Start       time.Time
	Took        time.Duration
	Err         error
}

// Journal is an append-only, checksummed checkpoint log for a sweep:
// completed kernel rows are framed, CRC'd and fsynced as they finish,
// as many to an append as are waiting, and reopening the file recovers
// them — salvaging past any torn or corrupt tail — so a Resume only
// recomputes what is missing.
type Journal struct {
	path     string
	space    hw.Space
	prior    *Matrix
	salvage  *SalvageReport
	onAppend func(GroupAppend)

	mu  sync.Mutex
	log *durable.Log

	// The committer's state, under cmu: the rows Commit queued, and,
	// while a committer runs, the channel it closes as it exits. buf is
	// the running committer's frame buffer, kept from group to group.
	cmu   sync.Mutex
	queue []queued
	idle  chan struct{}
	buf   []byte
}

// queued is one row waiting for the committer: its record, its
// callback, and the error it settles with when it cannot go into this
// journal at all.
type queued struct {
	rec  RowRecord
	done func(error)
	err  error
}

// OpenJournal opens or creates a sweep journal at path. An existing
// v3 file is scanned record by record and truncated at the first
// corrupt record; any other file is refused, with an error that names
// what it is (earlierFormat), and left as it is. Check Salvage() after
// opening to learn whether recovery had to drop anything.
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
	j := &Journal{path: path, space: space, log: log, onAppend: opts.OnAppend}
	switch {
	case data == nil:
		if torn > 0 {
			// Crash during the very first header write: nothing of
			// value was ever in the file.
			j.salvage = &SalvageReport{DroppedBytes: torn, DroppedRecords: 1, Reason: "torn journal header"}
		}
	case bytes.HasPrefix(data, []byte(journalMagic)):
		err = j.recoverV3(data)
	default:
		what := earlierFormat(data)
		if what == "" {
			what = "not a journal"
		}
		err = fmt.Errorf("sweep: %s is %s; this build reads only v3 journals, and the file is left as it is (move it aside to start over)", path, what)
	}
	if err != nil {
		log.Close()
		return nil, err
	}
	return j, nil
}

// earlierFormat names the earlier format whose file data begins, or is
// empty when data begins as no earlier build's file did.
func earlierFormat(data []byte) string {
	switch {
	case bytes.HasPrefix(data, []byte(journalMagicV2)):
		return "a v2 journal"
	case bytes.HasPrefix(data, []byte("kernel,")):
		return "a sweep CSV (a v1 journal or a finished gpusweep archive)"
	}
	return ""
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

// scanJournal walks a v3 journal image and returns the recovered
// matrix (nil if no rows), the clean prefix length in bytes, and a
// human-readable reason when the scan stopped before the end. The
// error return is reserved for files that must not be silently
// repaired: a file of an earlier format (earlierFormat), and a journal
// written for a different configuration space. A zero space takes the
// space record's own. good == 0 with nil error means nothing before
// the space record was usable and the caller should start fresh.
func scanJournal(data []byte, space hw.Space) (m *Matrix, good int64, reason string, err error) {
	if !bytes.HasPrefix(data, []byte(journalMagic)) {
		if what := earlierFormat(data); what != "" {
			return nil, 0, "", fmt.Errorf("sweep: the journal is %s; this build reads only v3 journals", what)
		}
		return nil, 0, "missing journal magic", nil
	}
	off := int64(len(journalMagic))
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
		row, why := decodeRowRecord(payload, space.Size())
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

// CheckReplica checks bytes bound for a journal's replica at path
// before any of them is written: a whole v3 journal image or, when
// appended, frames to follow the replica the file already holds.
// Either way every record must pass recovery's checks — its frame, the
// space record, and each row record's kernel name and planes for the
// space the image, or the replica's own space record, names — so the
// replica recovers as the journal it copies does. The planes are
// checked where they lie, never unpacked.
func CheckReplica(path string, b []byte, appended bool) error {
	var space hw.Space
	var off int64
	var why string
	if appended {
		var err error
		if space, why, err = replicaSpace(path); err != nil {
			return fmt.Errorf("sweep: reading the replica journal: %w", err)
		}
	} else {
		space, off, why = headSpace(b)
	}
	for why == "" && off < int64(len(b)) {
		payload, next, reason := durable.Parse(b, off)
		if why = reason; why == "" {
			_, _, why = checkRowRecord(payload, space.Size())
		}
		if why == "" {
			off = next
		}
	}
	if why != "" {
		return fmt.Errorf("sweep: not a replica of journal %s: %s at byte %d", filepath.Base(path), why, off)
	}
	return nil
}

// headSpace reads the magic and the space record a v3 journal image
// begins with, and returns the space and the offset of the first row
// record; reason is non-empty when the image does not begin so.
func headSpace(data []byte) (space hw.Space, off int64, reason string) {
	if !bytes.HasPrefix(data, []byte(journalMagic)) {
		return space, 0, "missing journal magic"
	}
	payload, off, reason := durable.Parse(data, int64(len(journalMagic)))
	if reason != "" {
		return space, 0, reason
	}
	if space, reason = parseSpaceRecord(payload); reason == "" && space.Size() == 0 {
		reason = "empty configuration space"
	}
	return space, off, reason
}

// replicaSpace reads the space record at the head of the journal file
// at path, and none of the rows behind it.
func replicaSpace(path string) (hw.Space, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return hw.Space{}, "", err
	}
	defer f.Close()
	for size := 4 << 10; ; size *= 2 {
		head := make([]byte, size)
		n, err := f.ReadAt(head, 0)
		if err != nil && err != io.EOF {
			return hw.Space{}, "", err
		}
		if space, _, why := headSpace(head[:n]); why == "" || n < size {
			return space, why, nil
		}
	}
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

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Image reads back the journal's clean prefix: its header and every
// record an append acked. Safe for concurrent use.
func (j *Journal) Image() ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Prefix()
}

// AppendRow checkpoints row r of m if — and only if — every cell is
// StatusOK: rows with failed, stalled or quarantined cells are left
// out so the next Resume recomputes them. It commits the row's record
// (Commit) and waits for its group: the record is fsynced before
// AppendRow returns, and a failed or torn write is rolled back so the
// file stays clean. Safe for concurrent use, and concurrent calls
// share appends; matches the Options.OnRow signature via a closure.
func (j *Journal) AppendRow(m *Matrix, r int) error {
	if !m.RowComplete(r) {
		return nil
	}
	rec, err := EncodeRow(m, r)
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	j.Commit(rec, func(err error) { done <- err })
	return <-done
}

// Commit queues rec, one complete row's record (EncodeRow) of this
// journal's configuration space, for the journal's next group append
// and returns at once. One committer goroutine per journal, started
// when a row is queued and none runs and gone once the queue is empty,
// frames everything queued into one write and one fsync, then calls
// each queued row's done, in queue order, with that append's error:
// nil once the row is durable, or the error after which the file holds
// none of the group. A group is whatever is queued when the previous
// one's callbacks have returned; nothing waits for more rows.
//
// done may be nil. It runs on the committer's goroutine and holds up
// the next group, so it must return promptly, and it must not append
// to its own journal, flush it or close it: AppendRow, Flush and Close
// wait for the very goroutine that runs it. Safe for concurrent use.
func (j *Journal) Commit(rec RowRecord, done func(error)) {
	q := queued{rec: rec, done: done, err: j.fits(rec)}
	j.cmu.Lock()
	defer j.cmu.Unlock()
	j.queue = append(j.queue, q)
	if j.idle == nil {
		j.idle = make(chan struct{})
		go j.commit(j.idle)
	}
}

// commit is the committer: it appends what is queued as one group and
// runs the group's callbacks until it finds the queue empty, then
// closes idle.
func (j *Journal) commit(idle chan struct{}) {
	defer close(idle)
	for {
		j.cmu.Lock()
		group := j.queue
		j.queue = nil
		if len(group) == 0 {
			j.idle = nil
			j.cmu.Unlock()
			return
		}
		j.cmu.Unlock()
		j.appendGroup(group)
		for _, q := range group {
			if q.done != nil {
				q.done(q.err)
			}
		}
	}
}

// appendGroup frames every record of group that fits the journal into
// one append and gives each of them that append's error.
func (j *Journal) appendGroup(group []queued) {
	start := time.Now()
	b, rows, first := j.buf[:0], 0, ""
	for _, q := range group {
		if q.err == nil {
			if rows == 0 {
				first = q.rec.kernel
			}
			b = durable.AppendFrame(b, q.rec.payload)
			rows++
		}
	}
	j.buf = b
	if rows == 0 {
		return
	}
	err := j.write(b, first, rows)
	if j.onAppend != nil {
		j.onAppend(GroupAppend{Rows: rows, Bytes: len(b), Start: start, Took: time.Since(start), Err: err})
	}
	for i := range group {
		if group[i].err == nil {
			group[i].err = err
		}
	}
}

// Flush waits until every row queued before it has been appended and
// its callback has returned; rows queued meanwhile may keep it waiting.
// Once it returns, no committer goroutine is left behind those rows.
func (j *Journal) Flush() {
	j.cmu.Lock()
	idle := j.idle
	j.cmu.Unlock()
	if idle != nil {
		<-idle
	}
}

// AppendRecord frames row records and appends them in one write and
// one fsync before returning the framed bytes it wrote; a failed or
// torn write is rolled back, so the file stays clean and holds none of
// them. Every record must hold a row of this journal's configuration
// space. Safe for concurrent use.
func (j *Journal) AppendRecord(recs ...RowRecord) ([]byte, error) {
	size := 0
	for _, rec := range recs {
		if err := j.fits(rec); err != nil {
			return nil, err
		}
		size += len(rec.payload) + 21 // the frame's CRC, length and separators
	}
	if len(recs) == 0 {
		return nil, nil
	}
	framed := make([]byte, 0, size)
	for _, rec := range recs {
		framed = durable.AppendFrame(framed, rec.payload)
	}
	if err := j.write(framed, recs[0].kernel, len(recs)); err != nil {
		return nil, err
	}
	return framed, nil
}

// fits reports why rec cannot go into this journal, or nil.
func (j *Journal) fits(rec RowRecord) error {
	if rec.payload == nil || rec.cells != j.space.Size() {
		return fmt.Errorf("sweep: journaling %s: record holds %d cells, the journal's space has %d",
			rec.kernel, rec.cells, j.space.Size())
	}
	return nil
}

// write appends framed, the frames of rows records from first on, in
// one write and one fsync.
func (j *Journal) write(framed []byte, first string, rows int) error {
	j.mu.Lock()
	err := j.log.Append(framed)
	j.mu.Unlock()
	if err != nil {
		what := first
		if rows > 1 {
			what = fmt.Sprintf("%d rows from %s", rows, first)
		}
		return fmt.Errorf("sweep: journaling %s: %w", what, err)
	}
	return nil
}

// Close flushes the journal (Flush), then closes its file.
func (j *Journal) Close() error {
	j.Flush()
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
