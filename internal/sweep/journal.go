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
// Every reader walks a journal one way (journalWalk), so recovery, the
// render and a replica's check keep the same clean prefix; recovery
// truncates the file at the first framing, checksum, parse or
// validation failure instead of erroring — a torn tail costs at most
// the append that was being written. An append is one write and one
// fsync of one or more whole records: a group of rows the journal's
// committer took together (Commit), or a fleet batch (AppendRecord).
// The frame and the fsynced self-healing append are internal/durable's;
// this file owns the payloads and what a walk makes of them.
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
	"sync"
	"time"

	"gpuscale/internal/durable"
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

// recoverV3 walks an existing v3 file, truncating at the first bad
// record. A clean file costs one pass and no writes.
func (j *Journal) recoverV3(data []byte) error {
	w, err := walkJournal(imageFrames(data), j.space)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	switch {
	case w.good == 0:
		// Header or space record was torn/corrupt — start over.
		err = j.log.Reset()
		j.salvage = &SalvageReport{DroppedBytes: int64(len(data)), DroppedRecords: 1, Reason: w.reason}
	case w.good < int64(len(data)):
		err = j.log.Cut(w.good)
		j.salvage = &SalvageReport{DroppedBytes: int64(len(data)) - w.good,
			DroppedRecords: countFrames(data[w.good:]), Reason: w.reason}
	}
	if err != nil {
		return fmt.Errorf("sweep: salvaging journal: %w", err)
	}
	j.prior, err = w.matrix()
	return err
}

// countFrames approximates how many records a dropped journal tail
// held: it steps from frame to frame by their headers, trusting no
// checksum, and counts what is left where a header does not read as
// one more whole frame.
func countFrames(b []byte) int {
	n := 0
	for len(b) > 0 {
		n++
		size, ok := durable.FrameSize(b)
		if !ok || size > int64(len(b)) {
			break
		}
		b = b[size:]
	}
	return n
}

// frames reads a journal's frames: in place from its image in memory,
// or from a file through one buffer.
type frames struct {
	f    *os.File // nil when the journal is img
	img  []byte
	size int64  // the journal's size when the walk began
	buf  []byte // one frame's bytes, read from f
}

// imageFrames reads the frames of a journal image in memory.
func imageFrames(img []byte) frames { return frames{img: img, size: int64(len(img))} }

// openFrames opens the journal file at path to read its frames; the
// caller closes fr.f.
func openFrames(path string) (fr frames, err error) {
	if fr.f, err = os.Open(path); err != nil {
		return fr, err
	}
	fi, err := fr.f.Stat()
	if err != nil {
		fr.f.Close()
		return fr, err
	}
	fr.size, fr.buf = fi.Size(), make([]byte, 4<<10)
	return fr, nil
}

// frame parses the frame at off as durable.Parse parses the journal's
// bytes from off: it returns the payload, valid until the next call,
// and the next frame's offset, or why the bytes there are not a whole
// frame. From a file it reads a frame the buffer cannot hold whole only
// when the file does, so a length field never sizes an allocation past
// the file.
func (fr *frames) frame(off int64) (payload []byte, next int64, reason string, err error) {
	if fr.f == nil {
		payload, next, reason = durable.Parse(fr.img, off)
		return payload, next, reason, nil
	}
	n, err := fr.f.ReadAt(fr.buf, off)
	if err != nil && err != io.EOF {
		return nil, 0, "", err
	}
	if size, ok := durable.FrameSize(fr.buf[:n]); ok && size > int64(n) && off+size <= fr.size {
		// Room for a few more bytes of kernel name in the frames to come.
		fr.buf = make([]byte, size+size/8)
		if n, err = fr.f.ReadAt(fr.buf, off); err != nil && err != io.EOF {
			return nil, 0, "", err
		}
	}
	payload, next, reason = durable.Parse(fr.buf[:n], 0)
	return payload, off + next, reason, nil
}

// unpack reads the record at off, which a walk found to be name's
// last, into row's planes.
func (fr *frames) unpack(off int64, name string, row Row) error {
	payload, _, why, err := fr.frame(off)
	if err != nil {
		return err
	}
	var got, packed []byte
	if why == "" {
		got, packed, why = checkRowRecord(payload, len(row.Throughput))
	}
	if why != "" || string(got) != name {
		return fmt.Errorf("the record for %s at byte %d changed during the render", name, off)
	}
	unpackInto(packed, row.Throughput, row.TimeNS, row.Bound)
	return nil
}

// journalWalk is what one walk of a v3 journal found: its space, its
// clean prefix (what recovery keeps) and where each kernel's last row
// record in it lies. Every reader of a journal reads it through one.
type journalWalk struct {
	frames
	space   hw.Space
	good    int64          // the clean prefix; 0 when the head is not whole
	reason  string         // why the walk stopped before the end, or ""
	index   map[string]int // each kernel's place in last, in first-seen order, or nil
	last    []int64        // the offset of each kernel's last record
	largest int64          // the size of the largest row record's frame
}

// walkJournal walks the journal fr reads, from its head to the first
// frame that is not a row record of its space (readHead, rows).
func walkJournal(fr frames, space hw.Space) (*journalWalk, error) {
	w, err := readHead(fr, space)
	if err == nil && w.good > 0 {
		w.index = map[string]int{}
		err = w.rows(w.good)
	}
	return w, err
}

// readHead starts a walk of the journal fr reads with its head, the
// magic and the space record, and reads nothing past them. A zero space
// takes the space record's own. A file of an earlier format
// (earlierFormat), or a journal of a space other than space, is refused
// with an error; a torn or corrupt head leaves no clean prefix.
func readHead(fr frames, space hw.Space) (*journalWalk, error) {
	w := &journalWalk{frames: fr}
	magic := w.img
	if w.f != nil {
		n, err := w.f.ReadAt(w.buf[:len(journalMagic)], 0)
		if err != nil && err != io.EOF {
			return nil, err
		}
		magic = w.buf[:n]
	}
	if !bytes.HasPrefix(magic, []byte(journalMagic)) {
		if what := earlierFormat(magic); what != "" {
			return nil, fmt.Errorf("the journal is %s; this build reads only v3 journals", what)
		}
		w.reason = "missing journal magic"
		return w, nil
	}
	off := int64(len(journalMagic))
	payload, next, why, err := w.frame(off)
	if err != nil {
		return nil, err
	}
	var sp hw.Space
	if why == "" {
		if sp, why = parseSpaceRecord(payload); why == "" && space.Size() == 0 {
			if space = sp; space.Size() == 0 {
				why = "empty configuration space"
			}
		}
	}
	if why != "" {
		w.reason = fmt.Sprintf("%s at byte %d", why, off)
		return w, nil
	}
	if !sp.Equal(space) {
		return nil, errors.New("journal was written for a different configuration space")
	}
	w.space, w.good = space, next
	return w, nil
}

// rows walks row records of the walk's space from off to the first
// frame that is not one, and notes each kernel's last record unless the
// walk keeps no index, as a replica append's check allocates nothing.
func (w *journalWalk) rows(off int64) error {
	for w.good = off; w.good < w.size; {
		payload, next, why, err := w.frame(w.good)
		if err != nil {
			return err
		}
		var name []byte
		if why == "" {
			name, _, why = checkRowRecord(payload, w.space.Size())
		}
		if why != "" {
			w.reason = fmt.Sprintf("%s at byte %d", why, w.good)
			return nil
		}
		if i, ok := w.index[string(name)]; ok {
			w.last[i] = w.good
		} else if w.index != nil {
			w.index[string(name)] = len(w.last)
			w.last = append(w.last, w.good)
		}
		w.largest = max(w.largest, next-w.good)
		w.good = next
	}
	return nil
}

// matrix unpacks the walk's rows, each kernel's last record, in the
// order the kernels first appear; it is nil when the walk found none.
func (w *journalWalk) matrix() (*Matrix, error) {
	if len(w.last) == 0 {
		return nil, nil
	}
	m := &Matrix{Space: w.space, Kernels: make([]string, len(w.last))}
	for k, i := range w.index {
		m.Kernels[i] = k
	}
	for i, k := range m.Kernels {
		row := NewRow(w.space.Size(), StatusOK)
		if err := w.unpack(w.last[i], k, row); err != nil {
			return nil, err
		}
		m.Throughput, m.TimeNS = append(m.Throughput, row.Throughput), append(m.TimeNS, row.TimeNS)
		m.Bound, m.Status = append(m.Bound, row.Bound), append(m.Status, row.Status)
	}
	return m, nil
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
// Either way recovery must keep every byte — each frame, the space
// record, and each row record's kernel name and planes for the space
// the image, or the replica's own space record, names — so the replica
// recovers as the journal it copies does. An append reads only the
// replica's head from disk; the bytes are walked where they lie, and
// the planes checked, never unpacked.
func CheckReplica(path string, b []byte, appended bool) error {
	var w *journalWalk
	var err error
	if !appended {
		w, err = walkJournal(imageFrames(b), hw.Space{})
	} else if w, err = replicaHead(path); err == nil && w.reason == "" {
		// The replica's space record names the space of b's rows.
		w.frames = imageFrames(b)
		err = w.rows(0)
	}
	if err == nil && w.reason != "" {
		err = errors.New(w.reason)
	}
	if err != nil {
		return fmt.Errorf("sweep: not a replica of journal %s: %w", filepath.Base(path), err)
	}
	return nil
}

// replicaHead reads the head of the journal file at path (readHead),
// and none of the rows behind it.
func replicaHead(path string) (*journalWalk, error) {
	fr, err := openFrames(path)
	if err != nil {
		return nil, err
	}
	defer fr.f.Close()
	return readHead(fr, hw.Space{})
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
		size += len(rec.payload) + durable.FrameOverhead
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
// checks that it now holds every named kernel, a complete row as every
// journal row is — the post-Resume check before it is archived.
func (j *Journal) VerifyComplete(kernels []string) error {
	j.mu.Lock()
	data, err := j.log.Prefix()
	j.mu.Unlock()
	if err != nil {
		return err
	}
	w, err := walkJournal(imageFrames(data), j.space)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if w.good < int64(len(data)) {
		return fmt.Errorf("%w: %s", ErrJournalIncomplete, w.reason)
	}
	for _, k := range kernels {
		if _, ok := w.index[k]; !ok {
			return fmt.Errorf("%w: kernel %s", ErrJournalIncomplete, k)
		}
	}
	return nil
}
